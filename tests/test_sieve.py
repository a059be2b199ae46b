from fractions import Fraction

import pytest

import oracles
from oracles import dense_rank_mod_p, ell_oracle
from smoothsieve import gf, sieve, variety, zeta
from smoothsieve.graded import GradedIdeal
from smoothsieve.mpoly import parse_homogeneous
from smoothsieve.sieve import (NoSmoothHypersurfaceFound,
                               UnsupportedPresentation, embed_curve,
                               estimate_density, estimate_low_degree,
                               estimate_sing_dist, low_degree_predictor,
                               predict_density, predict_sing_dist,
                               verify_chain)
from smoothsieve.variety import (SchemePresentation, load_problem,
                                parse_problem)

F2 = gf.make_field(2)


@pytest.fixture(scope="module")
def nodal(schemes_dir):
    return load_problem(schemes_dir / "nodal_cubic.scm")


@pytest.fixture(scope="module")
def p2(schemes_dir):
    return load_problem(schemes_dir / "p2.scm")


@pytest.fixture(scope="module")
def p1(schemes_dir):
    return load_problem(schemes_dir / "p1.scm")


# -- predictor ---------------------------------------------------------------

def test_predict_nodal_cubic_value_and_factors(nodal):
    rep = predict_density(nodal)
    assert rep.value == Fraction(15, 128)
    got = {(f.part, f.s): f.value for f in rep.factors}
    assert got == {("X-V", 4): Fraction(128, 45),
                   ("V_1", 2): Fraction(3, 2),
                   ("V_2", 1): Fraction(2)}
    assert rep.hypothesis_check.status == "satisfied"
    assert rep.hypothesis_check.provenance == "declared"


def test_predict_empty_z_reduces_to_plain_zeta(p2):
    rep = predict_density(p2)
    assert rep.value == Fraction(21, 64)
    assert [f.part for f in rep.factors] == ["X"]


def test_predict_degenerate_nonreduced(schemes_dir):
    prob = load_problem(schemes_dir / "nonreduced_line.scm")
    rep = predict_density(prob)
    assert rep.value == 0
    assert rep.hypothesis_check.status == "violated"
    assert rep.hypothesis_check.e == 2
    assert rep.hypothesis_check.dim == 1


def test_predict_degenerate_heuristic_dims(schemes_dir):
    # same fixture without the declared dimension: growth heuristic decides
    text = (schemes_dir / "nonreduced_line.scm").read_text()
    text = text.replace("dim V_2 = 1\n", "")
    prob = variety.parse_problem(text)
    rep = predict_density(prob)
    assert rep.value == 0
    assert rep.hypothesis_check.status == "violated"
    assert rep.hypothesis_check.provenance == "heuristic"


def test_predict_cuspidal_value(schemes_dir):
    # in characteristic 2 the classical curve is unibranch at its singular
    # point, so the honest product differs from the split-node model
    prob = load_problem(schemes_dir / "cuspidal_cubic.scm")
    rep = predict_density(prob)
    assert rep.value == Fraction(3, 32)


def test_predict_zero_iff_violated(nodal, p2, schemes_dir):
    for prob in (nodal, p2, load_problem(schemes_dir / "nonreduced_line.scm"),
                 load_problem(schemes_dir / "cuspidal_cubic.scm")):
        rep = predict_density(prob)
        assert (rep.value == 0) == (rep.hypothesis_check.status == "violated")


@pytest.mark.parametrize("dims", ["", "dim V_0 = 0\n"])
def test_no_low_degree_points_flag_with_declared_strata(dims):
    # Z is one closed point of degree 7 on P^1 over F_2 and has no point of
    # degree <= 3; a declared stratum dimension leaves the flag in place
    prob = parse_problem("q = 2\nP 1 : x y\nX:\nZ:\n  x^7 + x*y^6 + y^7\n"
                         "dim X = 1\n" + dims)
    rep = predict_density(prob)
    assert rep.value == Fraction(3, 8)
    assert "no-low-degree-points" in rep.flags


# -- singularity distribution -------------------------------------------------

def test_predict_sing_dist_p2(p2):
    rep = predict_sing_dist(p2, 2)
    entries = dict(rep.entries)
    assert entries[0] == Fraction(21, 64)
    assert entries[1] == Fraction(21, 64)
    assert entries[2] == Fraction(17, 96)
    assert rep.residual == 1 - Fraction(21, 64) - Fraction(21, 64) - Fraction(17, 96)
    assert sum(entries.values()) <= 1


def test_predict_sing_dist_ell0_is_reciprocal_zeta(p2, nodal):
    for prob in (p2,):
        rep = predict_sing_dist(prob, 0)
        prof = zeta.profile_from_scheme(prob.X, 4)
        m = prob.X.dim()
        assert dict(rep.entries)[0] == 1 / zeta.zeta_value(prof, m + 1).exact


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sing_dist_identity_all_q(schemes_dir, q):
    prob = load_problem(schemes_dir / "p2.scm", q_override=q)
    rep = predict_sing_dist(prob, 1)
    assert dict(rep.entries)[1] == Fraction((q ** 3 - 1) * (q * q - 1), q ** 6)


# -- low degree ---------------------------------------------------------------

def test_lowdeg_trivial_and_p2(p2):
    assert low_degree_predictor(p2, 1) == 1
    assert low_degree_predictor(p2, 2) == Fraction(7, 8) ** 7


def test_lowdeg_refuses_over_the_cap_before_enumerating(p2,
                                                        enumeration_calls):
    # r = 13 reaches P^2(F_4096); P^2's counts come in closed form, so the
    # cap is checked first (the exact power for a_12, about 1.4 million
    # points, would take minutes to build)
    with pytest.raises(variety.EnumerationCapExceeded) as info:
        low_degree_predictor(p2, 13)
    assert str(info.value) == ("P^2(F_4096) has 16781313 points "
                               "(cap 16777216)")
    assert enumeration_calls == []


def test_lowdeg_nodal(nodal):
    got = low_degree_predictor(nodal, 2)
    expect = ((1 - Fraction(1, 2 ** 4)) ** 13
              * (1 - Fraction(1, 2 ** 2)) * (1 - Fraction(1, 2)))
    assert got == expect


def test_lowdeg_monotone_and_converges_to_predictor(nodal):
    target = predict_density(nodal).value
    values = [low_degree_predictor(nodal, r) for r in range(1, 6)]
    assert values == sorted(values, reverse=True)
    assert all(v >= target for v in values)
    assert values[-1] - target < Fraction(1, 50)


def test_lowdeg_violated_decays_toward_zero(schemes_dir):
    # dim V_2 + 2 = 3 = m: the partial products decrease to 0 but no finite
    # stage vanishes (each factor is 1 - 2^{-deg} > 0)
    prob = load_problem(schemes_dir / "nonreduced_line.scm")
    values = [low_degree_predictor(prob, r) for r in range(1, 7)]
    assert all(v > 0 for v in values)
    assert values == sorted(values, reverse=True)
    assert values[5] < values[1] / 2


def test_lowdeg_exact_zero_at_embedded_triple_point(schemes_dir):
    # e(P) = 3 = m at the origin of the three axes: the zeta argument
    # m - e hits 0 and the per-point factor vanishes identically
    prob = load_problem(schemes_dir / "obstructed_axes.scm")
    assert low_degree_predictor(prob, 2) == 0


def test_estimate_lowdeg_r1_is_one(p2):
    est = estimate_low_degree(p2, 1, 6, 200, seed=3)
    assert est.fraction == 1


def test_estimate_lowdeg_statistical_equality(p2):
    # above the interpolation threshold the sampled fraction is an exact
    # Bernoulli with the predicted parameter
    n = 20000
    est = estimate_low_degree(p2, 2, 25, n, seed=12345)
    p = float(Fraction(7, 8) ** 7)
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(float(est.fraction) - p) <= 4 * sigma


def test_estimate_lowdeg_through_z(nodal):
    n = 8000
    est = estimate_low_degree(nodal, 2, 12, n, seed=99)
    p = float(low_degree_predictor(nodal, 2))
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(float(est.fraction) - p) <= 4 * sigma


# -- estimators ---------------------------------------------------------------

def test_estimate_p1_binary_quadrics(p1):
    rep = estimate_density(p1, [2], ("exhaustive",), sing_bound=2, exact=True)
    val = rep.value
    assert val.count_total == 8  # dim S_2 = 3 monomials over F_2
    assert val.count_smooth == 4
    # oracle: a nonzero binary quadric is smooth iff it has no repeated
    # projective root over F_4
    f4 = gf.make_field(2, 2)
    smooth = 0
    for bits in range(1, 8):
        coeffs = [(bits >> i) & 1 for i in range(3)]  # x^2, xy, y^2
        roots = 0
        for pt in [(0, 1)] + [(1, c) for c in range(4)]:
            x, y = pt
            val_ = 0
            for c, (i, j) in zip(coeffs, ((2, 0), (1, 1), (0, 2))):
                if c:
                    term = f4.mul(f4.pow(x, i), f4.pow(y, j))
                    val_ = f4.add(val_, term)
            if val_ == 0:
                roots += 1
        if roots == 2:
            smooth += 1
    assert smooth == 4


def test_estimate_zero_form_counted_not_smooth(p1):
    rep = estimate_density(p1, [1], ("exhaustive",), sing_bound=2, exact=True)
    assert rep.value.count_total == 4
    assert rep.value.count_smooth == 3  # x, y, x+y; f = 0 excluded


def test_estimate_plane_cubics_match_limit(p2):
    rep = estimate_density(p2, [3], ("exhaustive",), sing_bound=6, exact=True)
    assert rep.value.count_total == 1024
    assert rep.value.fraction == Fraction(21, 64)
    assert "exact-certificates" in rep.flags


def test_estimate_sampling_matches_exhaustive_roughly(p2):
    full = estimate_density(p2, [3], ("exhaustive",), sing_bound=4, exact=True)
    samp = estimate_density(p2, [3], ("sample", 4000), sing_bound=4,
                            exact=True, seed=7)
    p = float(full.value.fraction)
    sigma = (p * (1 - p) / 4000) ** 0.5
    assert abs(float(samp.value.fraction) - p) <= 4 * sigma


def test_estimate_bounded_is_upper_bound(p2):
    exact = estimate_density(p2, [3], ("exhaustive",), sing_bound=6, exact=True)
    for b in (1, 2, 3):
        bounded = estimate_density(p2, [3], ("exhaustive",), sing_bound=b,
                                   exact=False)
        assert bounded.value.count_smooth >= exact.value.count_smooth
    # and non-increasing in the search bound
    counts = [estimate_density(p2, [3], ("exhaustive",), sing_bound=b,
                               exact=False).value.count_smooth
              for b in (1, 2, 3, 4)]
    assert counts == sorted(counts, reverse=True)


def test_estimate_through_z_containment(nodal):
    # candidates all contain the curve; at the node every section is
    # singular when e(P) = 2 = dim X - 1 fails ... here m=3 so sections can
    # be smooth; check the space has the right size and fractions behave
    rep = estimate_density(nodal, [3], ("exhaustive",), sing_bound=2,
                           exact=False)
    assert rep.value.count_total == 2 ** 11  # dim I_3 = 11
    assert 0 < rep.value.count_smooth < 2 ** 11


def test_estimate_sing_dist_histogram_sums_to_one(p2):
    rep = estimate_sing_dist(p2, [3], ("exhaustive",), sing_bound=6,
                             ell_max=2, exact=True)
    (d, rows), = rep.per_degree
    assert d == 3
    assert sum(c for _, c, _ in rows) == 1024
    assert sum(fr for _, _, fr in rows) == 1


def test_estimate_sing_dist_known_curves(p2):
    rep = estimate_sing_dist(p2, [3], ("exhaustive",), sing_bound=6,
                             ell_max=3, exact=True)
    rows = dict((label, cnt) for label, cnt, _ in rep.per_degree[0][1])
    # the cuspidal/nodal cubic has exactly one singular rational point
    points = variety.enumerate_closed_points(p2.X, 6)
    cubic = parse_homogeneous("y^2*z - x^3 + x^2*z", F2, 3, ("x", "y", "z"))
    assert ell_oracle(p2.X, cubic, points) == 1
    # a double line is singular everywhere: lands in the overflow bin
    sq = parse_homogeneous("x^2*y", F2, 3, ("x", "y", "z"))
    assert ell_oracle(p2.X, sq, points) > 3


def test_estimate_sing_dist_ell0_matches_density(p2):
    for exact in (True, False):
        den = estimate_density(p2, [3], ("exhaustive",), sing_bound=4,
                               exact=exact)
        dist = estimate_sing_dist(p2, [3], ("exhaustive",), sing_bound=4,
                                  ell_max=2, exact=exact)
        assert dict((l, v.count_smooth) for l, v in dist.entries)["0"] \
            == den.value.count_smooth


def test_estimate_exact_mode_unsupported():
    conic = parse_homogeneous("x*z - y^2", F2, 3, ("x", "y", "z"))
    line = parse_homogeneous("x", F2, 3, ("x", "y", "z"))
    # two equations in P^2 cutting a curve is not codim-consistent with the
    # declared dimension, hence not a supported complete intersection
    X = SchemePresentation(F2, 3, (conic, line), declared_dim=2)
    prob = variety.SchemeProblem(F2, 3, ("x", "y", "z"), X, None, ())
    with pytest.raises(UnsupportedPresentation):
        estimate_density(prob, [2], ("exhaustive",), sing_bound=2, exact=True)


def test_exact_mode_refuses_a_removed_locus(enumeration_calls):
    # the certificate covers no removed locus; the refusal comes before any
    # point is enumerated
    prob = parse_problem("q = 2\nP 2 : x y z\nX:\nX.remove:\n  x\n")
    with pytest.raises(UnsupportedPresentation) as info:
        estimate_density(prob, [2], ("exhaustive",), sing_bound=2, exact=True)
    assert str(info.value) == ("exact mode supports X = P^n or a complete "
                               "intersection presentation, with no removed "
                               "locus")
    assert enumeration_calls == []


@pytest.mark.parametrize("n,q,smooth", [(2, 2, 336), (2, 3, 33696),
                                         (2, 4, 725760), (3, 2, 322560)])
def test_predictor_equals_exact_estimate_at_d3(n, q, smooth):
    # smooth cubics number a multiple of |GL_{n+1}(F_q)|, which makes the
    # exact density at d = 3 equal 1 / zeta_{P^n}(n + 1); exact mode does
    # not depend on B, so B = 1 keeps the scan small
    assert smooth == (oracles.smooth_plane_cubics(q) if n == 2
                      else oracles.smooth_cubic_surfaces(q))
    prob = parse_problem(f"q = {q}\nP {n} : {' '.join('xyzw'[:n + 1])}\n")
    rep = estimate_density(prob, [3], ("exhaustive",), sing_bound=1,
                           exact=True)
    assert rep.value.count_smooth == smooth
    assert rep.value.fraction == predict_density(prob).value


def test_estimate_ci_presentation_exact_mode():
    # X = a smooth conic in P^2 (a complete intersection of codim 1)
    conic = parse_homogeneous("x*z - y^2", F2, 3, ("x", "y", "z"))
    X = SchemePresentation(F2, 3, (conic,), declared_dim=1)
    prob = variety.SchemeProblem(F2, 3, ("x", "y", "z"), X, None, ())
    rep = estimate_density(prob, [2], ("exhaustive",), sing_bound=4, exact=True)
    # sections are degree-2 divisors on a rational curve; smooth means
    # reduced, and the zero form is excluded
    assert rep.value.count_total == 64
    assert 0 < rep.value.count_smooth < 64


def test_jet_condition_ranks_match_zeta_exponents(nodal):
    # on candidates through Z, the fraction singular at P is
    # q^{-(m-e)deg P} on the curve and q^{-(m+1)deg P} off it (for d above
    # the interpolation threshold), so the parity-mask systems must have
    # exactly those ranks
    V = SchemePresentation(nodal.field, nodal.nvars,
                           nodal.X.equations + nodal.Z.equations)
    space = sieve.candidate_space(nodal, 11)
    m = 3

    def ranks(scheme, bound):
        groups = variety.closed_point_arrays(scheme, bound)
        _, funcs = sieve._conditions(nodal.X, space, groups)
        points = variety.enumerate_closed_points(scheme, bound)
        return [(P, dense_rank_mod_p(f.tolist(), 2))
                for P, f in zip(points, funcs)]

    for P, rank in ranks(V, 2):
        e = variety.embedding_dimension(V, P)
        assert rank == (m - e) * P.degree
    xmv = oracles.complement_presentation(nodal)
    for P, rank in ranks(xmv, 1):
        assert rank == (m + 1) * P.degree


@pytest.mark.parametrize("q,removed", [(2, ""), (4, "X.remove:\n  x\n")])
def test_complement_of_all_of_pn_is_empty(q, removed):
    # Z with no equations is all of P^2, so X - V has no point at all
    prob = parse_problem(f"q = {q}\nP 2 : x y z\nX:\n{removed}Z:\n"
                         "dim X = 2\n")
    xmv = oracles.complement_presentation(prob)
    assert [variety.raw_point_count(xmv, e) for e in (1, 2)] == [0, 0]
    assert variety.enumerate_closed_points(xmv, 2) == []
    assert [oracles.raw_point_count(xmv, e) for e in (1, 2)] == [0, 0]
    table = variety.stratify(sieve.intersection_presentation(prob), 2)
    assert sieve._complement_counts(prob, table, 2, sieve.DEFAULT_CAP) == {
        1: 0, 2: 0}


def test_estimate_through_z_converges_to_predictor(nodal):
    # frozen exhaustive count at d=3: 248 of the 2048 sections through the
    # curve are certified smooth, within 0.01 of the limiting 15/128
    rep = estimate_density(nodal, [3], ("exhaustive",), sing_bound=3,
                           exact=True)
    assert (rep.value.count_smooth, rep.value.count_total) == (248, 2048)
    assert abs(rep.value.fraction - Fraction(15, 128)) < Fraction(1, 100)


def test_estimate_generic_field_q3():
    # P^1 over F_3, d = 2: ax^2 + bxy + cy^2 is singular iff b^2 = ac
    # (char-3 discriminant), which happens for 9 of the 27 forms
    prob = variety.parse_problem("q = 3\nP 1 : x y\nX:\n")
    rep = estimate_density(prob, [2], ("exhaustive",), sing_bound=2,
                           exact=True)
    assert rep.value.count_total == 27
    singular = sum(1 for a in range(3) for b in range(3) for c in range(3)
                   if (b * b - a * c) % 3 == 0)
    assert singular == 9
    assert rep.value.count_smooth == 27 - singular
    dist = estimate_sing_dist(prob, [2], ("exhaustive",), sing_bound=2,
                              ell_max=2, exact=True)
    assert dict((l, v.count_smooth) for l, v in dist.entries)["0"] == 18


@pytest.mark.parametrize("q", [2, 3])
def test_scan_seed_determinism(schemes_dir, q):
    prob = load_problem(schemes_dir / "p2.scm", q_override=q)
    a = estimate_density(prob, [3], ("sample", 500), sing_bound=3,
                         exact=False, seed=42)
    b = estimate_density(prob, [3], ("sample", 500), sing_bound=3,
                         exact=False, seed=42)
    assert a == b
    c = estimate_density(prob, [3], ("sample", 500), sing_bound=3,
                         exact=False, seed=43)
    assert c != a


# -- embedder -----------------------------------------------------------------

def test_embed_obstructed(schemes_dir):
    prob = load_problem(schemes_dir / "obstructed_axes.scm")
    res = embed_curve(prob, 2, 8)
    assert res.status == "obstructed"
    assert res.witness.representative == (0, 0, 0, 1)
    assert res.witness_e == 3


def test_embed_trivial_when_ambient_small(p2):
    # a conic as Z in P^2 with target dimension 2: nothing to do
    conic = parse_homogeneous("x*z - y^2", F2, 3, ("x", "y", "z"))
    prob = variety.SchemeProblem(
        F2, 3, ("x", "y", "z"),
        SchemePresentation(F2, 3, declared_dim=2),
        SchemePresentation(F2, 3, (conic,)), ((1, 1),))
    res = embed_curve(prob, 2, 6)
    assert res.status == "success" and res.steps == ()


def test_embed_nodal_cubic_succeeds_and_reverifies(nodal):
    res = embed_curve(nodal, 2, 8, seed=0)
    assert res.status == "success"
    assert len(res.steps) == 1
    step = res.steps[0]
    assert step.certificate.status == "empty"
    zideal = GradedIdeal(nodal.field, nodal.nvars, nodal.Z.equations)
    assert zideal.contains(step.poly)
    assert verify_chain(nodal, res)


def test_embed_nontrivial_degree(nodal):
    res = embed_curve(nodal, 2, 8, seed=0, d_min=3)
    assert res.status == "success"
    assert res.steps[0].degree >= 3
    assert verify_chain(nodal, res)
    # independent verification: no singular point of the hypersurface over
    # F_{2^e}, e <= 4, and the curve's equations reduce to zero modulo it
    f = res.steps[0].poly
    gens = [f] + [f.partial(i) for i in range(4)]
    J = GradedIdeal(F2, 4, gens)
    assert J.find_point(4) is None


def test_embed_smooth_section_through_nonreduced_line(schemes_dir):
    # density through the double structure is 0, yet the hyperplane z = 0
    # contains it ((z) sits inside (y^2, z)) and is smooth: existence
    # survives a zero density
    prob = load_problem(schemes_dir / "nonreduced_line.scm")
    res = embed_curve(prob, 2, 3, seed=1)
    assert res.status == "success"
    assert verify_chain(prob, res)


def test_embed_exhausted_raises(nodal):
    # restricted to degree exactly 2, every form through the curve is
    # w * (linear), a singular pair of planes: the budget runs out
    with pytest.raises(NoSmoothHypersurfaceFound) as info:
        embed_curve(nodal, 2, 2, seed=1, d_min=2)
    assert info.value.d_max == 2
    assert any(t > 0 for _, _, t in info.value.tries)
    with pytest.raises(NoSmoothHypersurfaceFound):
        embed_curve(nodal, 2, 0, seed=1)  # empty degree budget


def test_embed_seed_determinism(nodal):
    r1 = embed_curve(nodal, 2, 8, seed=5, d_min=3)
    r2 = embed_curve(nodal, 2, 8, seed=5, d_min=3)
    assert r1 == r2


# -- emptiness outside a removed locus -----------------------------------------

def _plane_ideal(texts):
    return GradedIdeal(F2, 3, [parse_homogeneous(t, F2, 3, ("x", "y", "z"))
                               for t in texts])


def test_empty_on_open_radical_step():
    # V(x^2, y) = {(0:0:1)} lies in V(x): no point outside it, J is not
    # empty on P^2, and x is not in J but x^2 is
    J = _plane_ideal(["x^2", "y"])
    x = parse_homogeneous("x", F2, 3, ("x", "y", "z"))
    assert J.is_projectively_empty().status != "empty"
    assert not J.contains(x) and J.contains(x * x)
    cert = sieve._empty_on_open(J, (x,), e_max=2)
    assert cert.status == "empty"


def test_empty_on_open_outcomes_off_the_removed_locus():
    # V(x^2 + xy + y^2, z) is a conjugate pair of points over F_4, outside
    # V(x): inconclusive when the search stops at F_2 (no power of x up to
    # the cap lies in J), the witness (1 : g : 0) when it reaches F_4
    J = _plane_ideal(["x^2 + x*y + y^2", "z"])
    x = parse_homogeneous("x", F2, 3, ("x", "y", "z"))
    cert = sieve._empty_on_open(J, (x,), e_max=1)
    assert cert.status == "inconclusive"
    power = x
    for _ in range(sieve._RADICAL_POWER_CAP - 1):
        power = power * x
    assert not J.contains(power)
    cert = sieve._empty_on_open(J, (x,), e_max=2)
    assert cert.status == "nonempty"
    assert cert.witness == (1, 2, 0) and cert.witness_field.q == 4
    # (0 : 0 : 1) is off V(z), so V(x, y) is found over F_2
    cert = sieve._empty_on_open(_plane_ideal(["x", "y"]),
                                (parse_homogeneous("z", F2, 3,
                                                   ("x", "y", "z")),), 1)
    assert cert.status == "nonempty"
    assert cert.witness == (0, 0, 1) and cert.witness_field.q == 2
