"""The numpy point engine against the per-point scans of `oracles`:
closed points, raw point counts and point-search witnesses must agree
exactly, point for point and in order."""

import numpy as np
import pytest

import oracles
from smoothsieve import gf, mpoly, sieve, variety
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


# Linear equations are solved once and only the subspace they cut is
# listed; with no equations, counts are |P^n| minus the removed locus.
SECTIONS = {
    "plane_conic_q3": (scheme(3, 4, ["x + 2*y + z + w", "x*z - y^2"]), 3),
    "line_g_q4": (scheme(4, 4, ["(g)*x + y + (g+1)*w", "z + (g)*w"]), 2),
    "plane_line_g_q4": (scheme(4, 3, ["(g)*x + y + (g+1)*z"]), 3),
    "dependent_q3": (scheme(3, 4, ["x + y + z", "y - w", "x + 2*y + z - w",
                                   "2*x + 2*y + 2*z"]), 3),
    "full_rank_q2": (scheme(2, 3, ["x + y", "y + z", "x + z + y"]), 3),
    "full_rank_q3": (scheme(3, 3, ["x + y", "y + z", "x + z"]), 2),
    "section_minus_removed_q4": (scheme(4, 4, ["x + (g)*y + w", "x*z + w^2"],
                                        ["x", "z + y"]), 2),
    "plane_minus_removed_q2": (scheme(2, 4, ["w"], ["x*y + z^2"]), 3),
    "p2_minus_line_q3": (scheme(3, 3, [], ["x + y + 2*z"]), 3),
    "p2_minus_conic_q4": (scheme(4, 3, [], ["x*y + (g)*z^2"]), 2),
    "p3_minus_nodal_q2": (scheme(2, 4, [], NODAL), 3),
    "p3_minus_two_planes_q3": (scheme(3, 4, [], ["x*y", "z + w"]), 2),
}


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_section_points_equal_per_point_scan(name):
    X, bound = SECTIONS[name]
    assert (variety.enumerate_closed_points(X, bound)
            == oracles.enumerate_closed_points(X, bound))
    for e in range(1, bound + 1):
        ext = gf.make_field(X.spec.p, X.spec.k * e)
        rows = [tuple(r) for rows in mpoly.zero_locus_points(
            X.equations, X.removed, ext, X.nvars) for r in rows.tolist()]
        assert rows == [pt for pt in oracles.projective_points(ext, X.nvars)
                        if oracles.contains_code_point(X, pt, ext)]
        assert variety.raw_point_count(X, e) == len(rows)


def test_section_of_the_nodal_cubic_lists_only_its_plane(enumeration_calls):
    # w = 0 leaves the three free coordinates x, y, z: every chunk stream
    # of the curve and of its complement in P^3 is one on P^2
    curve, rest = scheme(2, 4, NODAL), scheme(2, 4, [], NODAL)
    assert (variety.enumerate_closed_points(curve, 3)
            == oracles.enumerate_closed_points(curve, 3))
    assert ([variety.raw_point_count(rest, e) for e in (1, 2, 3)]
            == [oracles.raw_point_count(rest, e) for e in (1, 2, 3)])
    assert len(enumeration_calls) == 6
    assert all(nvars == 3 for _, nvars in enumeration_calls)


# Free P^1..P^3, equations, a removed locus and an empty scheme, for the
# arrays the scans read
ARRAY_CASES = {
    "p1_q3": (scheme(3, 2, []), 4),
    "p2_q2": (scheme(2, 3, []), 4),
    "p3_q2": (scheme(2, 4, []), 3),
    "conic_q3": (scheme(3, 3, ["x*z - y^2"]), 4),
    "nodal_v_q2": (scheme(2, 4, NODAL), 4),
    "p1_minus_axes_q2": (scheme(2, 2, [], ["x*y"]), 6),
    "empty_q2": (scheme(2, 3, ["x + y", "y + z", "x + z + y"]), 3),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_closed_point_arrays_equal_per_point_scan(name):
    X, bound = ARRAY_CASES[name]
    groups = variety.closed_point_arrays(X, bound)
    assert [(e, ext) for e, ext, _ in groups] == [
        (e, gf.make_field(X.spec.p, X.spec.k * e))
        for e in range(1, bound + 1)]
    for e, _, orbits in groups:
        assert orbits.dtype == np.int64
        assert orbits.shape[1:] == (e, X.nvars)
    points = [variety.ClosedPoint(e, ext, tuple(map(tuple, orbit)),
                                  tuple(orbit[0]))
              for e, ext, orbits in groups for orbit in orbits.tolist()]
    assert points == oracles.enumerate_closed_points(X, bound)
    if name == "empty_q2":
        assert [len(orbits) for _, _, orbits in groups] == [0] * bound


def test_closed_point_arrays_refuse_before_any_chunk(enumeration_calls):
    # P^2(F_16) is over the cap: degrees 1..3, under it, are not listed
    X = scheme(2, 3, [])
    with pytest.raises(variety.EnumerationCapExceeded) as info:
        variety.closed_point_arrays(X, 4, cap=100)
    assert str(info.value) == "P^2(F_16) has 273 points (cap 100)"
    assert enumeration_calls == []
    variety.closed_point_arrays(X, 3, cap=100)
    assert len(enumeration_calls) == 3


def test_points_above_the_table_cap():
    # F_{257^2} has no log/exp tables: the engine evaluates and applies
    # Frobenius on digit vectors there; 3 is not a square mod 257
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

# (q, generators, removed, e_max) on P^3, each with a linear generator
PLANE_SEARCHES = {
    "nodal_off_node_q2": (2, NODAL, ["x", "y"], 2),
    "nodal_off_both_q2": (2, NODAL, ["x", "y^2 + x*z"], 2),
    "lines_q3": (3, ["x + y + 2*z", "y + w"], [], 1),
    "g_plane_conic_q4": (4, ["(g)*x + y + w", "x*y + z^2"], ["z"], 2),
    "g_line_q4": (4, ["(g)*x + y", "z + (g+1)*w"], ["w"], 1),
    "full_rank_q2": (2, ["x", "y", "z + w", "w + x"], [], 2),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_point_search_witness_equals_per_point_scan(name):
    q, gens, removed, e_max = SEARCHES[name]
    _check_point_search(scheme(q, 3, gens, removed), e_max)


@pytest.mark.parametrize("name", sorted(PLANE_SEARCHES))
def test_point_search_on_a_plane_section(name):
    q, gens, removed, e_max = PLANE_SEARCHES[name]
    _check_point_search(scheme(q, 4, gens, removed), e_max)


def _check_point_search(S, e_max):
    expected = oracles.find_point(S, e_max)
    J = GradedIdeal(S.spec, S.nvars, S.equations)
    assert J.find_point(e_max, S.removed) == expected
    if not S.removed and expected is not None:
        # the graded test never certifies a locus with a point empty
        assert J.is_projectively_empty().status == "inconclusive"
    cert = sieve._empty_on_open(J, S.removed, e_max)
    if expected is None:
        assert cert.status != "nonempty"
    else:
        assert cert.status == "nonempty"
        assert (cert.witness, cert.witness_field) == expected


@pytest.mark.parametrize("removed", [[], ["x"]])
def test_unit_ideal_scans_no_chunk(enumeration_calls, removed):
    # the generators ('w', '1') that the embedder searches for the nodal
    # cubic: the nonzero constant empties the locus before any chunk
    S = scheme(2, 4, ["w", "1"], removed)
    J = GradedIdeal(S.spec, S.nvars, S.equations)
    _check_point_search(S, 2)
    assert J.find_point(2, S.removed) is None
    assert sieve._empty_on_open(J, S.removed, 2).status == "empty"
    assert enumeration_calls == []
