"""Exact scans of P^2 by the degree bound d(d-1)/2: the degree route
against the orbit-and-certificate route, the rule that picks one, smooth
counts against closed forms, and non-reduced counts against the
squarefree generating function."""

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

import oracles
from smoothsieve import sieve
from smoothsieve.variety import load_problem, parse_problem

# P^2 over F_2 through the point (0:0:1), and through the conjugate pair of
# points of degree 2 on the line x = 0
THROUGH_POINT = "q = 2\nP 2 : x y z\nX:\nZ:\n  x\n  y\n"
THROUGH_PAIR = "q = 2\nP 2 : x y z\nX:\nZ:\n  x\n  y^2 + y*z + z^2\n"


@lru_cache(maxsize=None)
def plane(schemes_dir, q):
    return load_problem(schemes_dir / "p2.scm", q_override=q)


def exact_scan(problem, d, bound):
    return sieve._run_scan(problem, d, ("exhaustive",), bound, True, 0,
                           sieve.DEFAULT_CAP)


def refuse(*args):
    raise AssertionError("the degree route runs no orbits or certificates")


class Enumerated(Exception):
    """Stops a scan at its first point enumeration."""


# Every exhaustive exact scan of P^2 the suite runs, as (q, d, B), except
# F_5 cubics and F_3 quartics, where the orbit route takes 23 s and 54 s;
# there the closed forms below check the degree route.
PLANE_CASES = [(2, 3, 1), (2, 3, 2), (2, 3, 4), (2, 3, 6), (2, 4, 1),
               (2, 4, 2), (2, 4, 6), (2, 5, 6), (3, 2, 1), (3, 2, 2),
               (3, 2, 3), (3, 3, 1), (3, 3, 3), (4, 2, 2), (4, 3, 1),
               (5, 2, 2)]


@pytest.mark.parametrize("case", [f"p2_q{q}_d{d}_b{b}"
                                  for q, d, b in PLANE_CASES]
                         + ["point_d3_b1", "point_d4_b1", "pair_d3_b1",
                            "pair_d4_b2"])
def test_degree_route_equals_orbit_route(schemes_dir, monkeypatch, case):
    if case.startswith("p2"):
        q, d, bound = (int(part[1:]) for part in case.split("_")[1:])
        problem = plane(schemes_dir, q)
    else:
        name, d, bound = case.split("_")
        problem = parse_problem(THROUGH_POINT if name == "point"
                                else THROUGH_PAIR)
        d, bound = int(d[1:]), int(bound[1:])
    top = max(bound, d * (d - 1) // 2)
    with monkeypatch.context() as m:
        m.setattr(sieve, "_degree_route", lambda *args: top)
        m.setattr(sieve, "_orbit_groups", refuse)
        m.setattr(sieve, "_certify_smooth", refuse)
        by_degree = exact_scan(problem, d, bound)
    with monkeypatch.context() as m:
        m.setattr(sieve, "_degree_route", lambda *args: None)
        by_orbits = exact_scan(problem, d, bound)
    assert by_degree == by_orbits
    if bound >= d * (d - 1) // 2:
        # every form clean at B is certified smooth
        assert by_orbits.unresolved == 0


@pytest.mark.parametrize("q,d,bound,route", [
    (2, 5, 6, "orbits"), (2, 4, 1, "degree"), (2, 4, 2, "degree"),
    (3, 4, 2, "degree"), (2, 3, 1, "degree"), (5, 3, 1, "degree")])
def test_route_rule_picks_before_enumerating(schemes_dir, monkeypatch, q, d,
                                             bound, route):
    # F_2, d = 5, B = 6: 4,179,420 rows at degrees 7..10 against 2^21
    # forms; F_2, d = 4, B = 1: 21,824 rows at degrees 2..6 against 2^15
    calls = []

    def stop(scheme, max_degree, cap):
        calls.append(max_degree)
        raise Enumerated

    monkeypatch.setattr(sieve, "closed_point_arrays", stop)
    with pytest.raises(Enumerated):
        exact_scan(plane(schemes_dir, q), d, bound)
    top = max(bound, d * (d - 1) // 2)
    assert calls == [top if route == "degree" else bound]


def test_route_rule_leaves_the_rest_to_certificates(schemes_dir):
    # P^n with n != 2, X != P^n: no degree bound applies
    problem = parse_problem("q = 2\nP 3 : x y z w\n")
    assert sieve._degree_route(problem, 2, 1, 2 ** 10) is None
    conic = parse_problem("q = 3\nP 2 : x y z\nX:\n  x*z - y^2\ndim X = 1\n")
    assert sieve._degree_route(conic, 2, 1, 3 ** 6) is None
    assert sieve._degree_route(plane(schemes_dir, 2), 2, 1, 2 ** 6) == 1


@pytest.mark.parametrize("q,d,bound", [
    (2, 3, 1), (3, 3, 1), (4, 3, 1), (5, 3, 1), (5, 3, 3), (2, 4, 1),
    (3, 4, 2)])
def test_exact_plane_counts_closed_form(schemes_dir, monkeypatch, q, d,
                                        bound):
    # smooth cubics q |GL_3(F_q)| and quartics (q^6 + 1) |GL_3(F_q)|, all
    # from the degree route at their real size
    smooth = (oracles.smooth_plane_cubics(q) if d == 3
              else oracles.smooth_plane_quartics(q))
    assert smooth == {(2, 3): 336, (3, 3): 33696, (4, 3): 725760,
                      (5, 3): 7440000, (2, 4): 10920,
                      (3, 4): 8199360}[q, d]
    monkeypatch.setattr(sieve, "_orbit_groups", refuse)
    monkeypatch.setattr(sieve, "_certify_smooth", refuse)
    res = exact_scan(plane(schemes_dir, q), d, bound)
    assert res.smooth_count == smooth
    assert res.count_total == q ** ((d + 1) * (d + 2) // 2)
    assert (sum(c for _, c in res.ell_counts) + res.smooth_count
            + res.unresolved) == res.count_total
    if bound >= d * (d - 1) // 2:
        assert res.unresolved == 0


@pytest.mark.parametrize("q,d,count", [(2, 3, 49), (2, 4, 455), (3, 3, 338),
                                       (4, 3, 1323)])
def test_nonreduced_forms_fill_the_bins_past_the_bound(schemes_dir, q, d,
                                                       count):
    # at B = d(d-1)/2 a reduced form has ell <= B, so when the forms with
    # ell > B number as many as the non-reduced ones, the two sets are equal
    assert oracles.nonreduced_plane_forms(q, d) == count
    bound = d * (d - 1) // 2
    res = sieve._run_scan(plane(schemes_dir, q), d, ("exhaustive",), bound,
                          False, 0, sieve.DEFAULT_CAP)
    assert sum(c for ell, c in res.ell_counts if ell > bound) == count


def test_tally_across_chunks(monkeypatch):
    monkeypatch.setattr(sieve, "_DIGIT_ENTRIES", 7)
    rng = np.random.default_rng(3)
    # values grow from chunk to chunk, so later chunks widen the counts
    ell = np.concatenate([rng.integers(-1, top, 7) for top in (1, 3, 9, 40)]
                         + [rng.integers(-1, 2, 5)]).astype(np.int8)
    assert sieve._tally(ell) == dict(Counter(ell.tolist()))
