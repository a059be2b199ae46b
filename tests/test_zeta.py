from fractions import Fraction

import pytest

import oracles
from oracles import sym_coefficients, sym_total
from smoothsieve import gf, variety
from smoothsieve.mpoly import parse_homogeneous
from smoothsieve.variety import SchemePresentation, enumerate_closed_points
from smoothsieve.zeta import (CountProfile, DivergentArgument,
                              InsufficientProfile, profile_from_counts,
                              profile_from_scheme, zeta_ell, zeta_value)

F2 = gf.make_field(2)


def p2_profile(q=2, b=8):
    return CountProfile(q, 2, (), ((1, 2), (1, 1), (1, 0)))


def test_profile_p2_enumerated_and_fitted():
    prof = profile_from_scheme(SchemePresentation(F2, 3), 2)
    assert prof.a == (7, 7)
    assert prof.poly == ((1, 2), (1, 1), (1, 0))
    assert oracles.point_count(prof, 1) == 7
    assert oracles.point_count(prof, 2) == 21


def test_profile_single_point_and_empty():
    x = parse_homogeneous("x", F2, 2, ("x", "y"))
    y = parse_homogeneous("y", F2, 2, ("x", "y"))
    single = profile_from_scheme(SchemePresentation(F2, 2, (x,),
                                                    declared_dim=0), 3)
    assert single.a == (1, 0, 0)
    assert single.poly == ((1, 0),)
    empty = profile_from_scheme(SchemePresentation(F2, 2, (x, y),
                                                   declared_dim=0), 3)
    assert empty.poly == ()
    assert zeta_value(empty, 1).exact == 1


def test_profile_polynomial_validation():
    with pytest.raises(ValueError):
        CountProfile(2, 1, (3, 1), ((1, 1),))  # N_1 = 2 but a says 3


def test_zeta_p2_value():
    prof = p2_profile()
    assert zeta_value(prof, 3).exact == Fraction(64, 21)


def test_zeta_complement_of_nodal_curve(schemes_dir):
    prob = variety.load_problem(schemes_dir / "nodal_cubic.scm")
    xmv = SchemePresentation(prob.field, prob.nvars, (),
                             prob.Z.equations, declared_dim=3)
    prof = profile_from_scheme(xmv, 5)
    assert prof.poly == ((1, 0), (1, 2), (1, 3))
    # the three stated reciprocal factors: (1-q^-s)(1-q^{2-s})(1-q^{3-s})
    for s in (4, 5):
        expect = 1 / ((1 - Fraction(1, 2 ** s)) * (1 - Fraction(1, 2 ** (s - 2)))
                      * (1 - Fraction(1, 2 ** (s - 3))))
        assert zeta_value(prof, s).exact == expect


def test_zeta_single_point_stratum():
    prof = profile_from_counts({1: 1}, 2, 0, 3)
    assert zeta_value(prof, 1).exact == 2


def test_zeta_divergence_guard():
    prof = p2_profile()
    with pytest.raises(DivergentArgument):
        zeta_value(prof, 2)


def test_zeta_bracket_contains_exact_and_monotone():
    exact = Fraction(64, 21)
    lowers = []
    for b in (2, 3, 4, 5):
        prof_poly = p2_profile()
        a = tuple(prof_poly.a_d(d) for d in range(1, b + 1))
        trunc = CountProfile(2, 2, a, None)
        zv = zeta_value(trunc, 3)
        assert zv.exact is None
        assert zv.lower <= exact <= zv.upper
        assert "heuristic-tail" in zv.flags
        lowers.append(zv.lower)
    assert lowers == sorted(lowers)


def test_zeta_exp_form_consistency(schemes_dir):
    # exp-form partial sums and Euler partial products agree within the
    # dropped tail, on P^1, P^2 and the nodal curve strata
    import math
    cases = [SchemePresentation(F2, 2), SchemePresentation(F2, 3)]
    prob = variety.load_problem(schemes_dir / "nodal_cubic.scm")
    cases.append(SchemePresentation(prob.field, prob.nvars,
                                    prob.X.equations + prob.Z.equations,
                                    declared_dim=1))
    for X in cases:
        b = 6
        prof = profile_from_scheme(X, b)
        dim = X.dim() if X.dim() is not None else 1
        s = dim + 1
        euler = 1.0
        for d in range(1, b + 1):
            euler *= (1 - 2.0 ** (-s * d)) ** (-prof.a[d - 1])
        exp_form = math.exp(sum(oracles.point_count(prof, e)
                                * 2.0 ** (-s * e) / e
                                for e in range(1, b + 1)))
        tail = sum(2.0 ** (dim * e) * 2.0 ** (-s * e) for e in range(b + 1, 60))
        assert abs(math.log(euler) - math.log(exp_form)) <= 3 * tail + 1e-9


def test_zeta_ell_zero_is_one():
    assert zeta_ell(p2_profile(), 0, 3).exact == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_zeta_ell_one_closed_form(q):
    prof = CountProfile(q, 2, (), ((1, 2), (1, 1), (1, 0)))
    got = zeta_ell(prof, 1, 3).exact
    assert got == Fraction(q * q + q + 1, q ** 3 - 1)


def test_zeta_ell_two_p2():
    # two support patterns: a pair of rational points, or one conjugate pair
    got = zeta_ell(p2_profile(), 2, 3).exact
    by_hand = (Fraction(21) * Fraction(1, 7) ** 2
               + Fraction(7) * Fraction(1, 63))
    assert got == by_hand == Fraction(34, 63)


def test_zeta_ell_partial_sums_against_symmetric_powers():
    # ratio extrapolation from the direct cycle counts up to degree 8
    prof = p2_profile()
    table = sym_coefficients(prof, 8, 3)
    partial = sum(Fraction(table[n][2], 2 ** (3 * n)) for n in range(9))
    assert abs(partial - Fraction(34, 63)) < Fraction(1, 10 ** 4)


def test_zeta_ell_insufficient_profile():
    trunc = CountProfile(2, 2, (7,), None)
    with pytest.raises(InsufficientProfile):
        zeta_ell(trunc, 2, 3)


def test_sym_trivial_rows():
    prof = p2_profile()
    table = sym_coefficients(prof, 4, 4)
    assert table[0][0] == 1 and sum(table[0]) == 1
    assert table[1][1] == 7 and sum(table[1]) == 7  # Sym^1 = X


def test_sym_p1_degree2_split():
    P1 = SchemePresentation(F2, 2)
    prof = profile_from_scheme(P1, 2)
    table = sym_coefficients(prof, 2, 2)
    # three doubled rational points support 1 geometric point each; the
    # three distinct pairs and the degree-2 closed point support 2
    assert table[2][1] == 3
    assert table[2][2] == 4
    assert sym_total(prof, 2)[2] == 7


@pytest.mark.parametrize("nvars,n_max", [(2, 8), (3, 8)])
def test_sym_decomposition_against_zero_cycle_enumeration(nvars, n_max):
    X = SchemePresentation(F2, nvars)
    prof = profile_from_scheme(X, n_max)
    table = sym_coefficients(prof, n_max, n_max)
    totals = sym_total(prof, n_max)
    degrees = [P.degree for P in enumerate_closed_points(X, n_max)]
    oracle = oracles.zero_cycles_by_support(degrees, n_max)
    if nvars == 2:
        assert oracle == oracles.zero_cycles_pointwise(degrees, n_max)
    for n in range(n_max + 1):
        assert sum(table[n]) == totals[n]
        for ell in range(n_max + 1):
            assert table[n][ell] == oracle[n][ell]


def test_sym_decomposition_random_profiles():
    import random
    rng = random.Random(8)
    for _ in range(10):
        a = tuple(rng.randrange(0, 5) for _ in range(6))
        prof = CountProfile(2, None, a, None)
        table = sym_coefficients(prof, 6, 6)
        totals = sym_total(prof, 6)
        for n in range(7):
            assert sum(table[n]) == totals[n]


def test_profile_json_shape():
    prof = p2_profile()
    d = prof.to_json_dict()
    assert d["q"] == 2 and d["poly"] == [[1, 2], [1, 1], [1, 0]]
