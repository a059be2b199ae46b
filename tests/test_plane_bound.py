"""Exact scans of a free P^n by the proven degree bounds of
`sieve._degree_bound`: the table's values, the degree route against the
orbit route and one certificate per candidate, each bound's tightness, the
rule that picks the route, smooth counts against closed forms, and
non-reduced counts against the squarefree generating function."""

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

import oracles
from smoothsieve import sieve
from smoothsieve.variety import load_problem, parse_problem

# P^2 over F_2 through the point (0:0:1), and through the conjugate pair of
# points of degree 2 on the line x = 0; P^3 over F_3 through the point
# (0:0:0:1), and through the line x = y = 0; P^3 over F_2 through the plane
# x = 0
THROUGH_POINT = "q = 2\nP 2 : x y z\nX:\nZ:\n  x\n  y\n"
THROUGH_PAIR = "q = 2\nP 2 : x y z\nX:\nZ:\n  x\n  y^2 + y*z + z^2\n"
THROUGH = {"point": THROUGH_POINT, "pair": THROUGH_PAIR,
           "p3point": "q = 3\nP 3 : x y z w\nX:\nZ:\n  x\n  y\n  z\n",
           "p3line": "q = 3\nP 3 : x y z w\nX:\nZ:\n  x\n  y\n"}
THROUGH_PLANE = "q = 2\nP 3 : x y z w\nX:\nZ:\n  x\n"

# B*(2, d) for d = 2..8: the largest of floor(d/2), floor(d^2/4),
# (d-1)(d-2)/2 and the conjugate-component bounds
PLANE_BOUND = {2: 1, 3: 3, 4: 4, 5: 6, 6: 12, 7: 15, 8: 21}


@lru_cache(maxsize=None)
def plane(schemes_dir, q):
    return load_problem(schemes_dir / "p2.scm", q_override=q)


def projective(n, q):
    """P^n over F_q with no equations and Z empty."""
    return parse_problem(f"q = {q}\nP {n} : {' '.join('xyzwv'[:n + 1])}\n")


def exact_scan(problem, d, bound):
    return sieve._run_scan(problem, d, ("exhaustive",), bound, True, 0,
                           sieve.DEFAULT_CAP)


def bounded_scan(problem, d, bound):
    return sieve._run_scan(problem, d, ("exhaustive",), bound, False, 0,
                           sieve.DEFAULT_CAP)


def refuse(*args):
    raise AssertionError("the degree route runs no certificates")


class Enumerated(Exception):
    """Stops a scan at its first point enumeration."""


def test_degree_bound_table():
    assert [sieve._degree_bound(2, d) for d in PLANE_BOUND] == list(
        PLANE_BOUND.values())
    assert [sieve._degree_bound(1, d) for d in range(1, 10)] == [
        0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert [sieve._degree_bound(0, d) for d in range(1, 5)] == [0] * 4
    assert [sieve._degree_bound(n, 1) for n in range(6)] == [0] * 6
    assert [sieve._degree_bound(n, 2) for n in range(2, 8)] == [1] * 6
    assert sieve._degree_bound(3, 3) == 4
    assert sieve._degree_bound(3, 4) is None
    assert sieve._degree_bound(4, 3) is None


# Every exhaustive exact scan of P^2 the suite runs, as (q, d, B), except
# F_5 cubics and F_3 quartics, where the orbit route takes 23 s and 54 s;
# there the closed forms below check the degree route.  Off the plane, one
# case per row of the table: P^0, P^1, d = 1, quadrics in P^3 and P^4,
# cubic surfaces.
PLANE_CASES = [(2, 3, 1), (2, 3, 2), (2, 3, 4), (2, 3, 6), (2, 4, 1),
               (2, 4, 2), (2, 4, 6), (2, 5, 6), (3, 2, 1), (3, 2, 2),
               (3, 2, 3), (3, 3, 1), (3, 3, 3), (4, 2, 2), (4, 3, 1),
               (5, 2, 2)]
FREE_CASES = [(2, q, d, b) for q, d, b in PLANE_CASES] + [
    (0, 3, 2, 1), (0, 2, 3, 1), (1, 3, 8, 1), (1, 2, 9, 2), (1, 4, 3, 1),
    (2, 3, 1, 1), (3, 2, 1, 1), (3, 2, 2, 1), (3, 3, 2, 1), (4, 2, 2, 1),
    (3, 2, 3, 1)]


@pytest.mark.parametrize("case", [f"p{n}_q{q}_d{d}_b{b}"
                                  for n, q, d, b in FREE_CASES]
                         + ["point_d3_b1", "point_d4_b1", "pair_d3_b1",
                            "pair_d4_b2", "p3point_d2_b1", "p3line_d2_b1"])
def test_degree_route_equals_orbit_route(monkeypatch, case):
    # Z empty: the orbit route of `oracles`; through Z, where the orbits of
    # GL_{n+1}(F_q) do not preserve I_d, one certificate per candidate
    name, *rest = case.split("_")
    if name in THROUGH:
        problem = parse_problem(THROUGH[name])
        d, bound = (int(part[1:]) for part in rest)
        oracle = oracles.per_candidate_scan
    else:
        q, d, bound = (int(part[1:]) for part in rest)
        problem = projective(int(name[1:]), q)
        oracle = oracles.orbit_scan
    with monkeypatch.context() as m:
        m.setattr(sieve, "_certify_smooth", refuse)
        by_degree = exact_scan(problem, d, bound)
    expected = oracle(problem, d, bound)
    assert by_degree == expected
    if bound >= sieve._degree_bound(problem.nvars - 1, d):
        # every form clean at B is certified smooth
        assert expected.unresolved == 0


@pytest.mark.parametrize("n,q,d,too_high,smooth", [
    (2, 2, 3, 344, 336), (2, 2, 4, 10962, 10920), (2, 2, 5, 690536, 688128),
    (1, 3, 8, 11700, 11664), (3, 2, 3, 327600, 322560),
    (2, 3, 4, 8213400, 8199360)])
def test_bound_is_tight(n, q, d, too_high, smooth):
    # a scan to B* - 1 counts forms singular only at a point of degree B*
    # as smooth, so a row of the table one too small gives a wrong count
    problem = projective(n, q)
    top = sieve._degree_bound(n, d)
    assert bounded_scan(problem, d, top - 1).smooth_count == too_high
    assert bounded_scan(problem, d, top).smooth_count == smooth
    assert smooth == {(1, 3, 8): oracles.smooth_binary_forms(3, 8),
                      (2, 2, 3): oracles.smooth_plane_cubics(2),
                      (2, 2, 4): oracles.smooth_plane_quartics(2),
                      (2, 2, 5): 688128,  # the orbit route, above
                      (3, 2, 3): oracles.smooth_cubic_surfaces(2),
                      (2, 3, 4): oracles.smooth_plane_quartics(3)}[n, q, d]


@pytest.mark.parametrize("q,d,bound,route", [
    (2, 5, 6, "degree"), (2, 4, 1, "degree"), (2, 4, 2, "degree"),
    (3, 4, 2, "degree"), (2, 3, 1, "degree"), (5, 3, 1, "degree"),
    (2, 4, 1, "certificate")])
def test_route_rule_picks_before_enumerating(schemes_dir, monkeypatch, q, d,
                                             bound, route):
    # the plane over F_2 at d = 4, B = 1: 1,328 rows at degrees 2..4
    # against 2^15 forms; quartics through the plane x = 0 in P^3 over F_2:
    # no bound, 2^20 forms to certify
    problem = (plane(schemes_dir, q) if route == "degree"
               else parse_problem(THROUGH_PLANE))
    calls = []

    def stop(scheme, max_degree, cap):
        calls.append(max_degree)
        raise Enumerated

    monkeypatch.setattr(sieve, "closed_point_arrays", stop)
    with pytest.raises(Enumerated):
        exact_scan(problem, d, bound)
    top = max(bound, PLANE_BOUND[d])
    assert calls == [top if route == "degree" else bound]


def test_route_rule_leaves_the_rest_to_certificates(schemes_dir):
    # no bound for P^3 at d = 4 or P^4 at d = 3, none for X != P^n, and
    # none when the rows past B are as many as the forms: 16,368 rows at
    # degrees 2..6 on P^2 over F_2 at d = 5, against 2^10 or 2^21
    assert sieve._degree_route(projective(3, 2), 4, 1, 2 ** 24) is None
    assert sieve._degree_route(projective(4, 2), 3, 1, 2 ** 24) is None
    conic = parse_problem("q = 3\nP 2 : x y z\nX:\n  x*z - y^2\ndim X = 1\n")
    assert sieve._degree_route(conic, 2, 1, 3 ** 6) is None
    assert sieve._degree_route(plane(schemes_dir, 2), 5, 1, 2 ** 10) is None
    assert sieve._degree_route(plane(schemes_dir, 2), 5, 1, 2 ** 21) == 6
    assert sieve._degree_route(plane(schemes_dir, 2), 2, 1, 2 ** 6) == 1
    assert sieve._degree_route(projective(3, 2), 2, 1, 2 ** 10) == 1


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
    monkeypatch.setattr(sieve, "_certify_smooth", refuse)
    res = exact_scan(plane(schemes_dir, q), d, bound)
    assert res.smooth_count == smooth
    assert res.count_total == q ** ((d + 1) * (d + 2) // 2)
    assert (sum(c for _, c in res.ell_counts) + res.smooth_count
            + res.unresolved) == res.count_total
    if bound >= PLANE_BOUND[d]:
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
    # values grow from chunk to chunk, so later chunks widen the counts;
    # the wider arrays hold -1 and values past int8, in sorted blocks
    for dtype, tops in ((np.int8, (1, 3, 9, 40)),
                        (np.int16, (1, 200, 9, 3000)),
                        (np.int32, (1, 130, 70000, 2))):
        ell = np.concatenate([rng.integers(-1, top, 7) for top in tops]
                             + [rng.integers(-1, 2, 5)]).astype(dtype)
        assert (ell == -1).any() and (ell > 127).any() == (dtype != np.int8)
        assert sieve._tally(ell) == dict(Counter(ell.tolist()))
