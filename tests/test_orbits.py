"""The smoothness certificate and the orbit route of `oracles`: the
certificate against the former point-search certificate, the generators
against a brute-force closure, the labels against every element of
GL_3(F_2), and exact scans, the library's and the orbit route's, against
one certificate per scan-clean candidate."""

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

import oracles
from oracles import (index_digits, invertible_matrices_f2,
                     matrix_closure_size, orbit_minima_f2,
                     per_candidate_scan, point_search_certificate,
                     scan_clean)
from smoothsieve import gf, sieve
from smoothsieve.variety import load_problem, parse_problem

QUADRIC = "q = 2\nP 3 : x y z w\nX:\n  x*y + z*w\ndim X = 2\n"
CONIC = "q = 3\nP 2 : x y z\nX:\n  x*z - y^2\ndim X = 1\n"


@lru_cache(maxsize=None)
def plane(schemes_dir, q):
    return load_problem(schemes_dir / "p2.scm", q_override=q)


def projective(n, q):
    """P^n over F_q with no equations and Z empty."""
    return parse_problem(f"q = {q}\nP {n} : {' '.join('xyzw'[:n + 1])}\n")


@pytest.mark.parametrize("case", ["p2_q2_d4", "p2_q3_d3", "p2_q4_d3",
                                  "p3_q2_d3", "quadric_d2", "conic_q3_d2",
                                  "nodal_d3"])
def test_certificate_agrees_with_point_search(schemes_dir, case):
    # P^n: every orbit representative at B = 1; X = a quadric surface over
    # F_2: every form clean at B = 1 (a superset of those clean at B = 2);
    # X = a conic over F_3, where the signs of the cofactors matter: every
    # form clean at B = 1; through the nodal cubic: every form clean at B = 2
    problem, d, bound = {
        "p2_q2_d4": (plane(schemes_dir, 2), 4, 1),
        "p2_q3_d3": (plane(schemes_dir, 3), 3, 1),
        "p2_q4_d3": (plane(schemes_dir, 4), 3, 1),
        "p3_q2_d3": (projective(3, 2), 3, 1),
        "quadric_d2": (parse_problem(QUADRIC), 2, 1),
        "conic_q3_d2": (parse_problem(CONIC), 2, 1),
        "nodal_d3": (load_problem(schemes_dir / "nodal_cubic.scm"), 3, 2),
    }[case]
    space, clean = scan_clean(problem, d, bound)
    if problem.Z is None and problem.X.is_free_ambient():
        clean, _ = oracles.orbit_groups(space, clean)
    certified = sieve._certify_smooth(
        problem, d, index_digits(space, clean.tolist())).tolist()
    seen = Counter()
    for index, smooth in zip(clean.tolist(), certified):
        status = point_search_certificate(problem, space.poly_of(index))
        seen[status] += 1
        if status != "inconclusive":
            assert smooth == (status == "empty"), (case, index, status)
    assert seen["empty"] and seen["nonempty"]


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_generators_close_to_gl3(p, k):
    spec = gf.make_field(p, k)
    q = spec.q
    order = (q ** 3 - 1) * (q ** 3 - q) * (q ** 3 - q * q)
    assert matrix_closure_size(spec, oracles.gl_generators(spec, 3)) == order


@pytest.mark.parametrize("d", [3, 4])
def test_labels_are_orbit_minima_over_gl3_f2(schemes_dir, d):
    assert len(invertible_matrices_f2(3)) == 168
    space, clean = scan_clean(plane(schemes_dir, 2), d, 1)
    labels = oracles.orbit_labels(space, clean)
    assert np.array_equal(clean[labels], orbit_minima_f2(3, d, clean))


@pytest.mark.parametrize("q,d", [(2, 4), (3, 2)])
def test_groups_are_orbits(schemes_dir, q, d):
    space, clean = scan_clean(plane(schemes_dir, q), d, 1)
    orbits = Counter(oracles.orbit_labels(space, clean).tolist())
    reps, sizes = oracles.orbit_groups(space, clean)
    assert reps.tolist() == clean[sorted(orbits)].tolist()
    assert sizes.tolist() == [orbits[label] for label in sorted(orbits)]


def exact_scans(problem, d, bound):
    """The library's exact scan and the orbit route, each of which must
    equal one certificate per scan-clean candidate."""
    expected = per_candidate_scan(problem, d, bound)
    assert oracles.orbit_scan(problem, d, bound) == expected
    return sieve._run_scan(problem, d, ("exhaustive",), bound, True, 0,
                           sieve.DEFAULT_CAP), expected


@pytest.mark.parametrize("q,d,bound", [
    (2, 3, 1), (2, 3, 2), (2, 3, 6), (2, 4, 1), (2, 4, 2), (2, 4, 6),
    (3, 2, 1), (3, 2, 2)])
def test_grouped_scan_equals_per_candidate(schemes_dir, q, d, bound):
    library, expected = exact_scans(plane(schemes_dir, q), d, bound)
    assert library == expected


@pytest.mark.parametrize("n,q,d", [(0, 2, 2), (0, 3, 2), (1, 3, 3),
                                   (1, 4, 3), (3, 2, 2)])
def test_grouped_scan_equals_per_candidate_off_the_plane(n, q, d):
    # GL_1(F_2) is trivial and GL_1(F_3) is the scaling alone; on P^1 the
    # swap and the cycle coincide; P^3 has four variables
    library, expected = exact_scans(projective(n, q), d, 1)
    assert library == expected


@pytest.mark.parametrize("q", [3, 4, 5])
def test_exact_conic_count_closed_form(schemes_dir, q):
    # a conic is smooth exactly when it is scan-clean at B = 2, and every
    # smooth conic is certified
    res = sieve._run_scan(plane(schemes_dir, q), 2, ("exhaustive",), 2, True,
                          0, sieve.DEFAULT_CAP)
    assert res.smooth_count == (q - 1) * (q ** 5 - q ** 2)
    assert res.unresolved == 0
