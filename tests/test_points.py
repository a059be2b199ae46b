"""The numpy point engine against the per-point scans of `oracles`:
closed points, raw point counts and point-search witnesses must agree
exactly, point for point and in order."""

import pytest

import oracles
from smoothsieve import gf, sieve, variety
from smoothsieve.graded import GradedIdeal
from smoothsieve.mpoly import parse_homogeneous
from smoothsieve.variety import SchemePresentation

XYZW = ("x", "y", "z", "w")


def field(q):
    p = next(f for f in range(2, q + 1) if q % f == 0)
    k = 1
    while p ** k < q:
        k += 1
    return gf.make_field(p, k)


def scheme(q, nvars, equations, removed=()):
    spec = field(q)

    def polys(texts):
        return tuple(parse_homogeneous(t, spec, nvars, XYZW[:nvars])
                     for t in texts)

    return SchemePresentation(spec, nvars, polys(equations), polys(removed))


NODAL = ("w", "y^2*z + x*y*z - x^3")

CASES = {
    "conic_q2": (scheme(2, 3, ["x*y + z^2"]), 6),
    "conic_q3": (scheme(3, 3, ["x*z - y^2"]), 4),
    "fermat_q5": (scheme(5, 3, ["x^3 + y^3 + z^3"]), 3),
    "cubic_q4": (scheme(4, 3, ["x^3 + (g)*y^3 + z^3 + x*y*z"]), 3),
    "conic_q9": (scheme(9, 3, ["x^2 + (g+1)*y^2 - z^2"]), 2),
    "nodal_minus_node_q2": (scheme(2, 4, NODAL, ["x", "y"]), 5),
    "quadric_minus_plane_q3": (scheme(3, 4, ["x*w - y*z"], ["x"]), 3),
    "p1_quartic_q7": (scheme(7, 2, ["x^4 + 3*y^4"]), 4),
    "p1_minus_axes_q2": (scheme(2, 2, [], ["x*y"]), 8),
    "cubic_q8": (scheme(8, 3, ["x^2*y + (g^2+1)*y^2*z + z^3"]), 2),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_points_equal_per_point_scan(name):
    X, bound = CASES[name]
    assert (variety.enumerate_closed_points(X, bound)
            == oracles.enumerate_closed_points(X, bound))
    for e in range(1, bound + 1):
        assert variety.raw_point_count(X, e) == oracles.raw_point_count(X, e)


def test_points_above_the_table_cap():
    # F_{257^2} has no log/exp tables: the engine evaluates and applies
    # Frobenius element by element there; 3 is not a square mod 257
    X = scheme(257, 2, ["x^2 - 3*y^2"])
    assert X.spec.q ** 2 > gf._TABLE_CAP
    points = variety.enumerate_closed_points(X, 2)
    assert points == oracles.enumerate_closed_points(X, 2)
    assert [P.degree for P in points] == [2]
    assert [variety.raw_point_count(X, e) for e in (1, 2)] == [0, 2]


SEARCHES = {
    # (q, generators, removed, e_max) on P^2
    "f4_witness": (2, ["x^2 + x*y + y^2", "z"], [], 2),
    "f4_witness_off_x": (2, ["x^2 + x*y + y^2", "z"], ["x"], 2),
    "inside_removed": (2, ["x^2", "y"], ["x"], 2),
    "rational_witness": (2, ["x", "y"], ["z"], 1),
    "conic_line_q3": (3, ["x*z - y^2", "x + y + z"], [], 2),
    "cubic_line_q4": (4, ["x^3 + (g)*y^3 + z^3 + x*y*z", "x + y"], ["z"], 2),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_point_search_witness_equals_per_point_scan(name):
    q, gens, removed, e_max = SEARCHES[name]
    S = scheme(q, 3, gens, removed)
    expected = oracles.find_point(S, e_max)
    J = GradedIdeal(S.spec, 3, S.equations)
    assert J.find_point(e_max, S.removed) == expected
    if not S.removed:
        wit = J.is_projectively_empty(e_max=e_max)
        assert (wit.witness, wit.witness_field) == (expected or (None, None))
    cert = sieve._empty_on_open(J, S.removed, e_max)
    if expected is None:
        assert cert.status != "nonempty"
    else:
        assert cert.status == "nonempty"
        assert (cert.witness, cert.witness_field) == expected
