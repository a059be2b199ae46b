"""Orbit grouping of exact certificates on P^n: the generators against a
brute-force closure, the labels against every element of GL_3(F_2), and
grouped scans against one certificate per scan-clean candidate."""

from functools import lru_cache

import numpy as np
import pytest

from oracles import invertible_matrices_f2, matrix_closure_size, orbit_minima_f2
from smoothsieve import gf, sieve, variety
from smoothsieve.variety import load_problem, parse_problem


@lru_cache(maxsize=None)
def plane(schemes_dir, q):
    return load_problem(schemes_dir / "p2.scm", q_override=q)


def projective(n, q):
    """P^n over F_q with no equations and Z empty."""
    return parse_problem(f"q = {q}\nP {n} : {' '.join('xyzw'[:n + 1])}\n")


def clean_indices(problem, d, bound):
    """(candidate space, sorted scan-clean indices) of an exhaustive scan."""
    space = sieve.candidate_space(problem, d)
    points = variety.enumerate_closed_points(problem.X, bound)
    ell = sieve._scan_all(space, sieve._conditions(problem.X, space, points))
    ell[0] = sieve._INFINITE
    return space, np.flatnonzero(ell == 0)


@lru_cache(maxsize=None)
def certify(problem, d, index):
    """The certificate outcome of one candidate on its own: 'empty',
    'nonempty' or 'inconclusive'."""
    space = sieve.candidate_space(problem, d)
    spec = problem.field
    if spec.q == 2 and sieve._fast_cert_smooth(spec, problem.nvars, d,
                                               space.row_of(index)):
        return "empty"
    return sieve._slow_is_smooth(problem, space.poly_of(index)).status


def per_candidate_result(problem, d, bound):
    """The exact ScanResult with one certificate per scan-clean candidate."""
    bounded = sieve._run_scan(problem, d, ("exhaustive",), bound, False, 0,
                              sieve.DEFAULT_CAP)
    _, clean = clean_indices(problem, d, bound)
    outcomes = [certify(problem, d, i) for i in clean.tolist()]
    flags = (["certificate-inconclusive"] if "inconclusive" in outcomes
             else []) + ["exact-certificates"]
    return sieve.ScanResult(d, bounded.count_total, bounded.ell_counts,
                            outcomes.count("empty"),
                            len(outcomes) - outcomes.count("empty"),
                            tuple(flags))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_generators_close_to_gl3(p, k):
    spec = gf.make_field(p, k)
    q = spec.q
    order = (q ** 3 - 1) * (q ** 3 - q) * (q ** 3 - q * q)
    assert matrix_closure_size(spec, sieve._gl_generators(spec, 3)) == order


@pytest.mark.parametrize("d", [3, 4])
def test_labels_are_orbit_minima_over_gl3_f2(schemes_dir, d):
    assert len(invertible_matrices_f2(3)) == 168
    space, clean = clean_indices(plane(schemes_dir, 2), d, 1)
    labels = sieve._orbit_labels(space, clean)
    assert np.array_equal(clean[labels], orbit_minima_f2(3, d, clean))


@pytest.mark.parametrize("q,d", [(2, 4), (3, 2)])
def test_groups_are_orbits_split_by_nonzero_partials(schemes_dir, q, d):
    space, clean = clean_indices(plane(schemes_dir, q), d, 1)
    counts = [sum(1 for j in range(3) if space.poly_of(i).partial(j))
              for i in clean.tolist()]
    assert sieve._nonzero_partials(space, clean).tolist() == counts
    labels = sieve._orbit_labels(space, clean).tolist()
    reps, sizes = sieve._orbit_groups(space, clean)
    pairs = set(zip(labels, counts))
    assert len(reps) == len(pairs) and sizes.sum() == len(clean)
    if q == 2:  # at d = 4 some orbits hold forms with different counts
        assert len(pairs) > len(set(labels))


@pytest.mark.parametrize("q,d,bound", [
    (2, 3, 1), (2, 3, 2), (2, 3, 6), (2, 4, 1), (2, 4, 2), (2, 4, 6),
    (3, 2, 1), (3, 2, 2)])
def test_grouped_scan_equals_per_candidate(schemes_dir, q, d, bound):
    problem = plane(schemes_dir, q)
    grouped = sieve._run_scan(problem, d, ("exhaustive",), bound, True, 0,
                              sieve.DEFAULT_CAP)
    assert grouped == per_candidate_result(problem, d, bound)


@pytest.mark.parametrize("n,q,d", [(0, 2, 2), (0, 3, 2), (1, 3, 3),
                                   (1, 4, 3), (3, 2, 2)])
def test_grouped_scan_equals_per_candidate_off_the_plane(n, q, d):
    # GL_1(F_2) is trivial and GL_1(F_3) is the scaling alone; on P^1 the
    # swap and the cycle coincide; P^3 has four variables
    problem = projective(n, q)
    grouped = sieve._run_scan(problem, d, ("exhaustive",), 1, True, 0,
                              sieve.DEFAULT_CAP)
    assert grouped == per_candidate_result(problem, d, 1)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_exact_conic_count_closed_form(schemes_dir, q):
    # a conic is smooth exactly when it is scan-clean at B = 2, and every
    # smooth conic is certified
    res = sieve._run_scan(plane(schemes_dir, q), 2, ("exhaustive",), 2, True,
                          0, sieve.DEFAULT_CAP)
    assert res.smooth_count == (q - 1) * (q ** 5 - q ** 2)
    assert res.unresolved == 0
