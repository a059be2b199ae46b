from dataclasses import replace

import pytest

from oracles import (affine_jacobian_rank, dump_problem, frobenius_code,
                     is_smooth_at, orbit_variants)
from smoothsieve import gf, sieve, variety, zeta
from smoothsieve.mpoly import parse_homogeneous
from smoothsieve.variety import (ClosedPoint, EnumerationCapExceeded,
                                 SchemeProblem,
                                 PointNotOnScheme, SchemePresentation,
                                 embedding_dimension, enumerate_closed_points,
                                 load_problem, parse_problem, raw_point_count,
                                 stratify)

F2 = gf.make_field(2)
XYZW = ("x", "y", "z", "w")


def poly(text, spec=F2, nvars=4, aliases=XYZW):
    return parse_homogeneous(text, spec, nvars, aliases)


def nodal_problem(schemes_dir):
    return load_problem(schemes_dir / "nodal_cubic.scm")


def curve_presentation(schemes_dir):
    prob = nodal_problem(schemes_dir)
    return SchemePresentation(prob.field, prob.nvars,
                              prob.X.equations + prob.Z.equations)


def test_p1_points_degree_2():
    P1 = SchemePresentation(F2, 2)
    pts = enumerate_closed_points(P1, 2)
    assert [p.degree for p in pts] == [1, 1, 1, 2]
    # oracle: P^1(F_4) has 5 points; 3 rational, one conjugate pair
    assert raw_point_count(P1, 2) == 5
    deg2 = pts[-1]
    assert len(deg2.orbit) == 2


def test_cut_out_point_and_empty_scheme():
    x = parse_homogeneous("x", F2, 2, ("x", "y"))
    Vx = SchemePresentation(F2, 2, (x,))
    pts = enumerate_closed_points(Vx, 3)
    assert len(pts) == 1 and pts[0].degree == 1
    empty = SchemePresentation(
        F2, 2, tuple(parse_homogeneous(t, F2, 2, ("x", "y"))
                     for t in ("x", "y")))
    assert enumerate_closed_points(empty, 3) == []


def test_orbit_structure_and_moebius(schemes_dir):
    C = curve_presentation(schemes_dir)
    pts = enumerate_closed_points(C, 4)
    # each orbit closed under the q-power frobenius with exact period
    for P in pts:
        ext = P.residue
        for member in P.orbit:
            image = tuple(frobenius_code(ext, c) for c in member)
            assert image in P.orbit
        assert len(P.orbit) == P.degree
    n_values = [raw_point_count(C, e) for e in range(1, 5)]
    for e, n_e in enumerate(n_values, 1):
        assert n_e == sum(P.degree for P in pts
                          if e % P.degree == 0)
    a = tuple(sum(P.degree == d for P in pts) for d in range(1, 5))
    assert variety.closed_point_counts(n_values) == a
    assert variety.point_counts(a) == n_values


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 2), (4, 3)])
def test_counts_of_pn(q, n):
    # N_e = (q^{e(n+1)} - 1)/(q^e - 1); a_1 = N_1, and d a_d sums
    # mu(d/e) N_e over the divisors e of d
    n_values = [(q ** (e * (n + 1)) - 1) // (q ** e - 1) for e in range(1, 9)]
    a = variety.closed_point_counts(n_values)
    assert a[0] == n_values[0]
    assert 6 * a[5] == n_values[5] - n_values[2] - n_values[1] + n_values[0]
    assert variety.point_counts(a) == n_values
    assert variety.dimension_guess(n_values, q) == n
    assert variety.dimension_guess(n_values[:3] + [0] * 5, q) == n
    assert variety.dimension_guess([0] * 8, q) is None


def test_enumeration_cap(enumeration_calls):
    # the cap is checked for every degree before any point is enumerated;
    # the message names the first degree over it, F_{2^8}
    P3 = SchemePresentation(F2, 4)
    with pytest.raises(EnumerationCapExceeded) as info:
        enumerate_closed_points(P3, 9)
    assert str(info.value) == ("P^3(F_256) has 16843009 points "
                               "(cap 16777216)")
    assert enumeration_calls == []


@pytest.mark.parametrize("count", ["profile", "lowdeg"])
def test_point_counts_refuse_before_enumerating(enumeration_calls, count):
    # degree 12 is over the cap and is checked first: no lower degree is
    # enumerated (P^2(F_2048) alone has 4.2 million points)
    conic = SchemePresentation(F2, 3, (poly("x*y + z^2", nvars=3,
                                            aliases=XYZW[:3]),))
    with pytest.raises(EnumerationCapExceeded) as info:
        if count == "profile":
            zeta.profile_from_scheme(conic, 12)
        else:
            curve = replace(conic, declared_dim=1)
            sieve.low_degree_predictor(
                SchemeProblem(F2, 3, XYZW[:3], curve, None), 13)
    assert str(info.value) == ("P^2(F_4096) has 16781313 points "
                               "(cap 16777216)")
    assert enumeration_calls == []


def test_hyperplane_sections_smooth():
    P3 = SchemePresentation(F2, 4, declared_dim=3)
    w = poly("w")
    H = SchemePresentation(F2, 4, (w,))
    for P in enumerate_closed_points(H, 2):
        assert is_smooth_at(P3, w, P, 2)


def test_singular_point_of_the_plane_cubic():
    # the plane w = 0 with the classical singular cubic inside it
    P3 = SchemePresentation(F2, 4, declared_dim=3)
    plane = SchemePresentation(F2, 4, (poly("w"),), declared_dim=2)
    cubic = poly("y^2*z - x^3 + x^2*z")
    node = [P for P in enumerate_closed_points(
        SchemePresentation(F2, 4, (poly("w"), cubic)), 1)
        if P.representative == (0, 0, 1, 0)][0]
    assert not is_smooth_at(plane, cubic, node, 1)
    smooth_pt = [P for P in enumerate_closed_points(
        SchemePresentation(F2, 4, (poly("w"), cubic)), 1)
        if P.representative == (0, 1, 0, 0)][0]
    assert is_smooth_at(plane, cubic, smooth_pt, 1)


def test_smooth_conic_point():
    conic = parse_homogeneous("x*z - y^2", F2, 3, ("x", "y", "z"))
    C = SchemePresentation(F2, 3, (conic,))
    P2 = SchemePresentation(F2, 3, declared_dim=2)
    pts = enumerate_closed_points(C, 1)
    assert pts and all(is_smooth_at(P2, conic, P, 1) for P in pts)


def test_point_not_on_scheme():
    P2 = SchemePresentation(F2, 3, declared_dim=2)
    x = parse_homogeneous("x", F2, 3, ("x", "y", "z"))
    off = ClosedPoint(1, F2, ((1, 0, 0),), (1, 0, 0))
    with pytest.raises(PointNotOnScheme):
        is_smooth_at(P2, x, off, 1)


def test_embedding_dimension_on_curve(schemes_dir):
    C = curve_presentation(schemes_dir)
    pts = enumerate_closed_points(C, 2)
    by_rep = {P.representative: P for P in pts}
    node = by_rep[(0, 0, 1, 0)]
    assert embedding_dimension(C, node) == 2
    for P in pts:
        if P.representative != (0, 0, 1, 0):
            assert embedding_dimension(C, P) == 1


def test_embedding_dimension_nonreduced():
    V = SchemePresentation(F2, 4, (poly("y^2"), poly("z")))
    for P in enumerate_closed_points(V, 2):
        # Jacobian of (y^2, z) has rank 1 in the 3 affine variables
        assert embedding_dimension(V, P) == 2


def test_stratify_nodal_cubic(schemes_dir):
    prob = nodal_problem(schemes_dir)
    C = curve_presentation(schemes_dir)
    table = stratify(C, 3, prob.dims)
    assert sorted(table.strata) == [1, 2]
    assert table.strata[2].counts == {1: 1}
    assert table.strata[1].counts == {1: 1, 2: 1, 3: 2}
    assert table.strata[2].dim_estimate == 0
    assert table.strata[1].dim_source == "declared"


def test_stratify_smooth_is_single_stratum():
    conic = parse_homogeneous("x*z - y^2", F2, 3, ("x", "y", "z"))
    table = stratify(SchemePresentation(F2, 3, (conic,)), 3)
    assert list(table.strata) == [1]


def test_stratify_empty():
    empty = SchemePresentation(
        F2, 2, tuple(parse_homogeneous(t, F2, 2, ("x", "y"))
                     for t in ("x", "y")))
    table = stratify(empty, 3)
    assert table.strata == {}


def test_chart_independence(schemes_dir):
    # the library's rank of the homogeneous Jacobian is the affine rank in
    # every chart where the representative is nonzero
    C = curve_presentation(schemes_dir)
    w = poly("w")
    gens, _ = variety.effective_generators(C)
    for P in enumerate_closed_points(C, 3):
        charts = [i for i, c in enumerate(P.representative) if c]
        values = {affine_jacobian_rank(gens, P, ch) for ch in charts}
        assert values == {C.ambient_dim - embedding_dimension(C, P)}
        plane = SchemePresentation(F2, 4, (w,), declared_dim=2)
        cubic = C.equations[1]
        smooth_vals = {is_smooth_at(plane, cubic, P, 1, chart=ch)
                       for ch in charts}
        assert len(smooth_vals) == 1


def test_galois_stability(schemes_dir):
    C = curve_presentation(schemes_dir)
    plane = SchemePresentation(F2, 4, (poly("w"),), declared_dim=2)
    cubic = C.equations[1]
    for P in enumerate_closed_points(C, 3):
        outcomes = {is_smooth_at(plane, cubic, variant, 1)
                    for variant in orbit_variants(P)}
        assert len(outcomes) == 1
        e_vals = {embedding_dimension(C, variant)
                  for variant in orbit_variants(P)}
        assert len(e_vals) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_embedding_dimensions_equal_n_minus_the_affine_rank(schemes_dir, q):
    # at every closed point of degree <= 3 of V and of X, e(P) read off the
    # orbit arrays is n minus the oracle's affine rank, in every chart where
    # the representative is nonzero and with every orbit member taken as
    # the representative
    schemes = {}
    for name in ("nodal_cubic", "cuspidal_cubic", "nonreduced_line",
                 "obstructed_axes"):
        problem = load_problem(schemes_dir / f"{name}.scm", q_override=q)
        schemes[sieve.intersection_presentation(problem)] = None
        schemes[problem.X] = None
    seen = set()
    for V in schemes:
        gens, _ = variety.effective_generators(V)
        for e, ext, orbits in variety.closed_point_arrays(V, 3):
            dims = variety.embedding_dimensions(V, ext, orbits[:, 0])
            for orbit, e_p in zip(orbits.tolist(), dims.tolist()):
                seen.add(e_p)
                orbit = tuple(map(tuple, orbit))
                for member in orbit:
                    P = ClosedPoint(e, ext, orbit, member)
                    assert {affine_jacobian_rank(gens, P, chart)
                            for chart, c in enumerate(member) if c} == {
                                V.ambient_dim - e_p}
    assert seen == {1, 2, 3}


def test_scheme_file_round_trip(schemes_dir):
    for name in ("nodal_cubic.scm", "cuspidal_cubic.scm", "p2.scm", "p1.scm",
                 "nonreduced_line.scm", "obstructed_axes.scm"):
        prob = load_problem(schemes_dir / name)
        again = parse_problem(dump_problem(prob))
        assert again == prob


def test_q_override(schemes_dir):
    prob = load_problem(schemes_dir / "p2.scm", q_override=9)
    assert prob.field.q == 9 and prob.field.p == 3


def test_field_line_with_modulus():
    prob = parse_problem("q = 2^2 [g^2+g+1]\nP 1 : x y\nX:\n")
    assert prob.field.q == 4 and prob.field.modulus == (1, 1, 1)


@pytest.mark.parametrize("modulus", [
    "x^2 + 2*x + 2", "g^2 + 2*g + 2", "2 + 2*g + x^2", "g*x + 2*x + 2",
    "x^2 + 2 x + 2", "x x + 2x + 2", "-2*x^2 - x - 1", "0*x^3 + x^2 + 2*x + 2"])
def test_spellings_of_one_modulus_give_one_field(modulus):
    # a modulus is a polynomial over F_p in g or x, read term by term at its
    # total degree; a zero term counts at no degree
    prob = parse_problem(f"q = 9 [{modulus}]\nP 1 : x y\n")
    assert prob.field == gf.make_field(3, 2, (2, 2, 1))


def test_declared_dim_mismatch_warns_not_errors():
    import warnings
    bad = "q = 2\nP 2 : x y z\nX:\ndim X = 1\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prob = parse_problem(bad)
    assert prob.X.declared_dim == 1  # kept despite the warning
    assert any("grow like" in str(w.message) for w in caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_problem("q = 2\nP 2 : x y z\nX:\ndim X = 2\n")
    assert not caught


def test_bad_scheme_files():
    with pytest.raises(variety.SchemeFileError):
        parse_problem("P 1 : x y\nX:\n")           # missing field
    with pytest.raises(variety.SchemeFileError):
        parse_problem("q = 6\nP 1 : x y\nX:\n")    # not a prime power
    with pytest.raises(variety.SchemeFileError):
        parse_problem("q = 2\nnonsense\n")
