import random

import numpy as np
import pytest

import oracles
from smoothsieve import gf
from smoothsieve.mpoly import (HomogeneityError, MPoly, ParseError,
                               monomials_of_degree,
                               normalized_projective_points, parse_homogeneous,
                               parse_poly)

F2 = gf.make_field(2)
F3 = gf.make_field(3)
F4 = gf.make_field(2, 2)
XYZ = ("x", "y", "z")


def P(text, spec=F2, nvars=3, aliases=XYZ):
    return parse_poly(text, spec, nvars, aliases)


def test_add_char2_cancels():
    f = P("x + y")
    assert not (f + f)


def test_mul_degrees_add():
    f = P("x") * P("y")
    assert f == P("x*y")
    assert f.homogeneous_degree() == 2


def test_freshman_dream():
    f = P("x + y")
    assert f * f == P("x^2 + y^2")


def test_partials_of_the_singular_cubic():
    f = P("y^2*z - x^3 + x^2*z")
    assert not f.partial(1)                    # 2yz = 0 in char 2
    assert f.partial(0) == P("x^2")            # -3x^2 + 2xz = x^2
    assert not P("1").partial(0)


def test_partial_leibniz_random():
    rng = random.Random(5)
    monos = monomials_of_degree(3, 2)
    for _ in range(20):
        f = MPoly(F3, 3, {m: rng.randrange(3) for m in monos})
        g = MPoly(F3, 3, {m: rng.randrange(3) for m in monos})
        for i in range(3):
            lhs = (f * g).partial(i)
            rhs = f.partial(i) * g + f * g.partial(i)
            assert lhs == rhs


def test_evaluate_on_curve_point():
    f = P("y^2*z - x^3 + x^2*z")
    assert f.evaluate_codes((0, 0, 1), F2) == 0
    assert P("x").evaluate_codes((1, 0, 1), F2) == 1
    assert P("x^2 + x", nvars=1, aliases=("x",)).evaluate_codes((1,), F2) == 0
    assert P("x^2 + x", nvars=1, aliases=("x",)).evaluate_codes((0,), F2) == 0


def test_evaluate_in_extension():
    f = P("x*y + z^2")
    g = F4.gen
    val = f.evaluate((g, g, F4.one))
    assert val == g * g + F4.one


def test_monomial_counts():
    assert len(monomials_of_degree(3, 3)) == 10
    assert len(monomials_of_degree(4, 3)) == 20
    assert monomials_of_degree(3, 0) == ((0, 0, 0),)
    # graded-lex, x0 major
    assert monomials_of_degree(3, 2)[0] == (2, 0, 0)


def test_dehomogenize():
    w4 = ("x", "y", "z", "w")
    f = parse_poly("w", F2, 4, w4)
    assert f.dehomogenize(3) == parse_poly("1", F2, 4, w4)
    g = P("y^2*z - x^3 + x^2*z")
    assert g.dehomogenize(2) == P("y^2 - x^3 + x^2")
    assert P("x").dehomogenize(2) == P("x")


def test_eval_arith_compatibility_exhaustive():
    rng = random.Random(11)
    monos = monomials_of_degree(3, 2)
    for spec in (F2, F4):
        pts = [(1, a, b) for a in range(spec.q) for b in range(spec.q)]
        for _ in range(8):
            f = MPoly(spec, 3, {m: rng.randrange(spec.q) for m in monos})
            g = MPoly(spec, 3, {m: rng.randrange(spec.q) for m in monos})
            for pt in pts:
                fv = f.evaluate_codes(pt, spec)
                gv = g.evaluate_codes(pt, spec)
                assert (f + g).evaluate_codes(pt, spec) == spec.add(fv, gv)
                assert (f * g).evaluate_codes(pt, spec) == spec.mul(fv, gv)


def test_point_chunks_follow_the_tuple_order():
    # P^2(F_128) spans several chunks; P^0 is the single point (1)
    for spec, nvars in ((gf.make_field(2, 7), 3), (F3, 1), (F4, 4)):
        rows = np.concatenate(list(normalized_projective_points(spec, nvars)))
        assert (list(map(tuple, rows.tolist()))
                == list(oracles.projective_points(spec, nvars)))


@pytest.mark.parametrize("base,e", [(F2, 3), (F4, 2), (F3, 2),
                                    (gf.make_field(5), 1)])
def test_evaluate_rows_equals_evaluate_codes(base, e):
    rng = random.Random(base.q * 10 + e)
    ext = gf.make_field(base.p, base.k * e)
    rows = np.concatenate(list(normalized_projective_points(ext, 3)))
    pts = list(map(tuple, rows.tolist()))
    forms = [MPoly.zero(base, 3), MPoly.constant(base, 3, 1)]
    for d in (1, 2, 3):
        monos = monomials_of_degree(3, d)
        forms.append(MPoly(base, 3, {m: rng.randrange(base.q) for m in monos}))
    for f in forms:
        assert (f.evaluate_rows(rows, ext).tolist()
                == [f.evaluate_codes(pt, ext) for pt in pts])


@pytest.mark.parametrize("p,k,e", [(2, 1, 1), (2, 2, 1), (3, 2, 1), (257, 2, 1),
                                   (3, 1, 2), (257, 1, 2)])
def test_evaluate_rows_on_random_codes(p, k, e):
    # random polynomials over F_{p^k} at random code rows (zeros included)
    # of its extension of degree e; F_{257^2} lies above the table cap
    rng = random.Random(p * k + e)
    base = gf.make_field(p, k)
    ext = gf.make_field(p, k * e)
    rows = np.array([[rng.choice([0, 1, rng.randrange(ext.q)])
                      for _ in range(3)] for _ in range(60)], dtype=np.int64)
    pts = list(map(tuple, rows.tolist()))
    forms = [MPoly.zero(base, 3)]
    for d in (0, 1, 2, 3, 4):
        monos = monomials_of_degree(3, d)
        forms.append(MPoly(base, 3, {m: rng.randrange(base.q) for m in monos
                                     if rng.random() < 0.7}))
    for f in forms:
        assert (f.evaluate_rows(rows, ext).tolist()
                == [f.evaluate_codes(pt, ext) for pt in pts])
    assert MPoly.zero(base, 3).evaluate_rows(rows[:0], ext).tolist() == []


@pytest.mark.parametrize("spec", [F2, F3])
def test_euler_identity(spec):
    rng = random.Random(3)
    d = 4
    monos = monomials_of_degree(3, d)
    for _ in range(10):
        f = MPoly(spec, 3, {m: rng.randrange(spec.q) for m in monos})
        acc = MPoly.zero(spec, 3)
        for i in range(3):
            acc = acc + MPoly.variable(spec, 3, i) * f.partial(i)
        assert acc == f * (d % spec.p)


def test_partial_commutes_with_dehomogenize():
    rng = random.Random(7)
    monos = monomials_of_degree(3, 3)
    for _ in range(10):
        f = MPoly(F2, 3, {m: rng.randrange(2) for m in monos})
        for i in (0, 1):  # non-chart variables, chart = z
            assert f.partial(i).dehomogenize(2) == f.dehomogenize(2).partial(i)


def test_parser_coefficients_and_powers():
    f = P("2*x^2 + 3*x*y + y^2", spec=F3)
    assert f.terms == {(2, 0, 0): 2, (0, 2, 0): 1}  # 3xy = 0 mod 3
    g = P("x y", spec=F2)  # implicit product via whitespace
    assert g == P("x*y")


def test_parser_gexpr_coefficients():
    f = parse_poly("(g+1)*x + g*y", F4, 2, ("x", "y"))
    assert f.terms[(1, 0)] == 3 and f.terms[(0, 1)] == 2


def test_parser_rejects_garbage():
    with pytest.raises(ParseError):
        P("x + $")
    with pytest.raises(ParseError):
        P("q*x")
    with pytest.raises(ParseError):
        P("x^")


@pytest.mark.parametrize("spec", [F2, F4])
@pytest.mark.parametrize("text", ["(x+y)^2", "(x+y)*z", "(g*x + 1)*y"])
def test_parser_names_parentheses_around_variables(spec, text):
    # parentheses hold field literals only; the equation must be expanded
    with pytest.raises(ParseError) as info:
        P(text, spec=spec)
    assert str(info.value) == ("parentheses hold field literals in 'g' "
                               f"only; expand {text!r} into a sum of terms")
    # a literal without a variable keeps its own messages
    with pytest.raises(ParseError) as info:
        P("(h+1)*x", spec=spec)
    assert str(info.value) == ("generator literals need an extension field"
                               if spec is F2 else
                               "field literals use the symbol 'g'")


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3),
                                 (2, 8)])
def test_every_field_literal_reads_back(p, k):
    # element_string prints a polynomial in g; read back as a literal it
    # gives the same code
    spec = gf.make_field(p, k)
    for code in range(spec.q):
        f = parse_poly(f"({spec.element_string(code)})*x", spec, 1, ("x",))
        assert f.terms.get((1,), 0) == code


@pytest.mark.parametrize("text,message", [
    ("((g))*x", "field literals take no nested parentheses"),
    ("(g^)*x", "expected integer exponent after '^'"),
    ("(*)x", "dangling operator in '*'")])
def test_literals_share_the_equation_grammar(text, message):
    with pytest.raises(ParseError) as info:
        P(text, spec=F4)
    assert str(info.value) == message


def test_homogeneity_enforcement():
    with pytest.raises(HomogeneityError):
        parse_homogeneous("x^2 + y", F2, 3, XYZ)
    f = parse_homogeneous("x^2 + y*z", F2, 3, XYZ)
    assert f.homogeneous_degree() == 2


def test_to_string_round_trip():
    for text in ("x^3 + x*y*z + y^2*z", "x^2 + y^2", "x", "0"):
        f = P(text)
        assert P(f.to_string(XYZ)) == f
