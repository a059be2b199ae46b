import random

import oracles
from smoothsieve import gf
from smoothsieve.graded import GradedIdeal, poly_to_vector
from smoothsieve.mpoly import (MPoly, monomials_of_degree, parse_homogeneous,
                               parse_poly)

F2 = gf.make_field(2)
F3 = gf.make_field(3)
XYZW = ("x", "y", "z", "w")
XY = ("x", "y")


def ideal(gens, spec=F2, nvars=4, aliases=XYZW):
    polys = [parse_homogeneous(g, spec, nvars, aliases) for g in gens]
    return GradedIdeal(spec, nvars, polys)


def test_ideal_piece_rank_11_against_dense_oracle():
    I = ideal(["w", "y^2*z + x*y*z - x^3"])
    piece = I.piece(3)
    assert piece.ncols == 20
    rows = oracles.multiples_matrix(I.generators, 3, 4, 2)
    assert oracles.dense_rank_mod_p(rows, 2) == 11
    assert piece.rank == 11


def test_ideal_piece_full_and_zero():
    irrelevant = ideal(["x", "y", "z", "w"])
    assert irrelevant.piece(1).rank == 4
    zero = GradedIdeal(F2, 4, [])
    assert zero.piece(5).rank == 0


def test_piece_random_ranks_match_oracle():
    rng = random.Random(2)
    for spec in (F2, F3):
        for _ in range(6):
            monos2 = monomials_of_degree(3, 2)
            gens = [MPoly(spec, 3, {m: rng.randrange(spec.q) for m in monos2})
                    for _ in range(2)]
            gens = [g for g in gens if g]
            I = GradedIdeal(spec, 3, gens)
            for d in (2, 3, 4):
                rows = oracles.multiples_matrix(I.generators, d, 3, spec.p)
                if spec.q == 2:
                    assert I.piece(d).rank == oracles.dense_rank_mod_p(rows, 2)
                else:
                    assert I.piece(d).rank == oracles.dense_rank_mod_p(rows, 3)


def test_saturation_recovers_hidden_linear_form():
    I = ideal(["x^2", "x*y"], nvars=2, aliases=XY)
    assert I.piece(1).rank == 0
    sat, flag = I.saturated_piece(1)
    assert flag == "stable"
    assert sat.rank == 1
    polys = sat.to_polys(2)
    assert polys == [parse_poly("x", F2, 2, XY)]
    # oracle: for each of the q + 1 nonzero linear forms up to scalar, test
    # x_i^N f membership in the plain pieces for some N <= 3
    x = parse_poly("x", F2, 2, XY)
    y = parse_poly("y", F2, 2, XY)
    for cand in (x, y, x + y):
        in_sat = False
        for n in range(1, 4):
            conds = []
            for v in (x, y):
                mult = cand
                for _ in range(n):
                    mult = mult * v
                rows = oracles.multiples_matrix(I.generators, 1 + n, 2, 2)
                rows.append([c for c in _dense_vec(mult, 1 + n)])
                rank_with = oracles.dense_rank_mod_p(rows, 2)
                rank_without = oracles.dense_rank_mod_p(rows[:-1], 2)
                conds.append(rank_with == rank_without)
            if all(conds):
                in_sat = True
                break
        assert in_sat == sat.contains_vector(poly_to_vector(cand, 1))


def _dense_vec(f, d):
    monos = monomials_of_degree(f.nvars, d)
    row = [0] * len(monos)
    for e, c in f.terms.items():
        row[monos.index(e)] = c
    return row


def test_saturated_equals_piece_for_principal():
    I = ideal(["w"])
    piece = I.piece(2)
    sat, flag = I.saturated_piece(2)
    assert flag == "stable"
    assert sat.rows == piece.rows


def test_saturated_zero_ideal():
    I = GradedIdeal(F2, 3, [])
    sat, flag = I.saturated_piece(4)
    assert (sat.rank, flag) == (0, "stable")


def test_contains():
    I = ideal(["w"])
    wx = parse_homogeneous("w*x", F2, 4, XYZW)
    x = parse_homogeneous("x", F2, 4, XYZW)
    assert I.contains(wx)
    assert not I.contains(x)
    J = ideal(["w", "y^2*z + x*y*z - x^3"])
    assert J.contains(J.generators[1])
    assert I.contains(MPoly.zero(F2, 4))


def test_contains_strict_vs_saturated():
    I = ideal(["x^2", "x*y"], nvars=2, aliases=XY)
    x = parse_poly("x", F2, 2, XY)
    assert I.contains(x)
    # x is in the saturation of (x^2, xy) but not in the ideal itself
    assert not I.piece(1).contains_vector(poly_to_vector(x, 1))


def test_emptiness_irrelevant():
    I = ideal(["x", "y", "z", "w"])
    cert = I.is_projectively_empty()
    assert cert.status == "empty" and cert.k == 1


def test_emptiness_fermat_cubic_jacobian():
    f = parse_homogeneous("x^3 + y^3 + z^3", F2, 3, ("x", "y", "z"))
    J = GradedIdeal(F2, 3, [f] + [f.partial(i) for i in range(3)])
    cert = J.is_projectively_empty()
    assert cert.status == "empty"
    # oracle: no singular point over F_2, F_4, F_8 by exhaustion
    assert J.find_point(3) is None


def test_emptiness_witness():
    I = GradedIdeal(F2, 2, [parse_poly("x", F2, 2, XY)])
    assert I.find_point(2) == ((0, 1), F2)


def test_emptiness_inconclusive_when_capped():
    I = GradedIdeal(F2, 2, [parse_poly("x", F2, 2, XY)])
    cert = I.is_projectively_empty()
    assert cert.status == "inconclusive"


def test_rank_monotone_under_generators():
    rng = random.Random(9)
    monos = monomials_of_degree(3, 2)
    for _ in range(8):
        g1 = MPoly(F2, 3, {m: rng.randrange(2) for m in monos})
        g2 = MPoly(F2, 3, {m: rng.randrange(2) for m in monos})
        small = GradedIdeal(F2, 3, [g1])
        big = GradedIdeal(F2, 3, [g1, g2])
        for d in range(2, 7):
            assert small.piece(d).rank <= big.piece(d).rank
            sat_small, _ = small.saturated_piece(d)
            assert sat_small.rank >= small.piece(d).rank


def test_emptiness_agrees_with_point_search_on_corpus():
    rng = random.Random(4)
    for spec, nvars in ((F2, 2), (F2, 3), (F3, 2)):
        monos = monomials_of_degree(nvars, 2)
        for _ in range(10):
            gens = [MPoly(spec, nvars,
                          {m: rng.randrange(spec.q) for m in monos})
                    for _ in range(nvars - 1 + rng.randrange(2))]
            gens = [g for g in gens if g]
            if not gens:
                continue
            I = GradedIdeal(spec, nvars, gens)
            cert = I.is_projectively_empty()
            assert cert.status in ("empty", "inconclusive")
            if cert.status == "empty":
                assert I.find_point(4) is None


def test_s1_stability():
    rng = random.Random(14)
    monos = monomials_of_degree(3, 2)
    from smoothsieve.mpoly import MPoly as MP
    for _ in range(6):
        gens = [MP(F2, 3, {m: rng.randrange(2) for m in monos})]
        gens = [g for g in gens if g]
        if not gens:
            continue
        I = GradedIdeal(F2, 3, gens)
        for d in range(2, 6):
            nxt = I.piece(d + 1)
            for row_poly in I.piece(d).to_polys(3):
                for i in range(3):
                    shifted = MP.variable(F2, 3, i) * row_poly
                    assert nxt.contains_vector(poly_to_vector(shifted, d + 1))
