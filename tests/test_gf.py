import random

import numpy as np
import pytest

import oracles
from oracles import enumerate_field
from smoothsieve import gf
from smoothsieve.gf import (EnumerationCapExceeded, FieldMismatchError,
                            IncompatibleFieldsError, NonPrimeError,
                            ReducibleModulusError, embed, make_field)


def test_make_field_prime_and_quadratic():
    f2 = make_field(2)
    assert (f2.p, f2.k, f2.q) == (2, 1, 2)
    f4 = make_field(2, 2, (1, 1, 1))
    assert f4.q == 4
    assert f4.modulus == (1, 1, 1)


def test_canonical_modulus_f9_is_lex_minimal():
    # oracle: enumerate monic quadratics over F_3 in code order, keep the
    # first irreducible (no roots suffices in degree 2)
    first = None
    for code in range(9, 18):
        c0, c1, c2 = code % 3, (code // 3) % 3, code // 9
        has_root = any((x * x + c1 * x + c0) % 3 == 0 for x in range(3))
        if not has_root:
            first = (c0, c1, c2)
            break
    f9 = make_field(3, 2)
    assert f9.modulus == first == (1, 0, 1)  # x^2 + 1


def test_make_field_errors():
    with pytest.raises(NonPrimeError):
        make_field(6)
    with pytest.raises(ReducibleModulusError):
        make_field(2, 2, (0, 0, 1))  # x^2 = x * x
    with pytest.raises(ReducibleModulusError):
        make_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


def test_field_ops_char2():
    f2 = make_field(2)
    one = f2.one
    assert (one + one).code == 0


def test_f4_mul_and_inv_by_exhaustion():
    f4 = make_field(2, 2, (1, 1, 1))
    g = f4.gen
    assert g * g == g + 1
    # oracle: the inverse is the unique nonzero element with product 1
    inverses = [b for b in enumerate_field(f4) if b.code and (g * b) == 1]
    assert inverses == [g.inv()] and g.inv() == g + 1


def test_div_and_zero_division():
    f9 = make_field(3, 2)
    a = f9.element(5)
    assert a / a == f9.one
    with pytest.raises(ZeroDivisionError):
        a / f9.zero
    with pytest.raises(ZeroDivisionError):
        f9.zero.inv()


def test_spec_mismatch():
    f4 = make_field(2, 2)
    f2 = make_field(2)
    with pytest.raises(FieldMismatchError):
        f4.gen + f2.one


def test_embed_unital_and_zero():
    f2 = make_field(2)
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    assert embed(f2.one, f4) == f4.one
    assert embed(f2.zero, f16) == f16.zero


def test_embed_generator_order():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    im = embed(f4.gen, f16)
    # oracle: exhaustive powering
    powers = [im]
    while powers[-1] != f16.one:
        powers.append(powers[-1] * im)
    assert len(powers) == 3


def test_embed_is_ring_hom():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    for a in enumerate_field(f4):
        for b in enumerate_field(f4):
            assert embed(a + b, f16) == embed(a, f16) + embed(b, f16)
            assert embed(a * b, f16) == embed(a, f16) * embed(b, f16)


def test_embed_composes_in_towers():
    for p, k in ((2, 1), (3, 1), (2, 2)):
        small = make_field(p, k)
        mid = make_field(p, 2 * k)
        big = make_field(p, 4 * k)
        for a in enumerate_field(small):
            assert embed(embed(a, mid), big) == embed(a, big)


def test_embed_incompatible():
    with pytest.raises(IncompatibleFieldsError):
        embed(make_field(2, 2).gen, make_field(2, 3))
    with pytest.raises(IncompatibleFieldsError):
        embed(make_field(3).one, make_field(2, 2))


def test_enumerate_field_sizes_and_order():
    f2 = make_field(2)
    assert [a.code for a in enumerate_field(f2)] == [0, 1]
    f4 = make_field(2, 2)
    assert len(enumerate_field(f4)) == 4
    f8 = make_field(2, 3)
    elems = enumerate_field(f8)
    assert len(elems) == 8
    assert all(a ** 7 == f8.one for a in elems if a.code)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_field(make_field(2, 25))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 6), (2, 12),
                                 (3, 1), (3, 2), (3, 4), (5, 2), (7, 2),
                                 (11, 1)])
def test_little_fermat_exhaustive(p, k):
    spec = make_field(p, k)
    assert spec.q <= 1 << 12
    for code in range(spec.q):
        assert spec.pow(code, spec.q) == code


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_frobenius_is_additive(p, k):
    spec = make_field(p, k)
    for a in range(spec.q):
        for b in range(spec.q):
            lhs = spec.pow(spec.add(a, b), spec.q)
            rhs = spec.add(spec.pow(a, spec.q), spec.pow(b, spec.q))
            assert lhs == rhs


def test_frobenius_helper_matches_pow():
    f16 = make_field(2, 4)
    for a in enumerate_field(f16):
        assert oracles.frobenius(a) == a ** 2
        assert oracles.frobenius(a, 4) == a ** 4
        assert oracles.frobenius_code(f16, a.code) == (a ** 2).code
    # p-power frobenius applied k times is the identity
    for code in range(16):
        assert oracles.frobenius_code(f16, code, 4) == code


def test_element_strings():
    f4 = make_field(2, 2)
    assert f4.element_string(3) == "g+1"
    assert f4.element_string(0) == "0"
    f2 = make_field(2)
    assert f2.element_string(1) == "1"


@pytest.mark.parametrize("p,k", [(3, 2), (2, 17), (257, 2), (65537, 1)])
def test_code_arrays_monomials_match_scalar_products(p, k):
    # F_9 goes through the log/exp tables; F_{2^17}, F_{257^2} and F_65537
    # (above the table cap) through products of digit vectors
    spec = make_field(p, k)
    rng = random.Random(p * k)
    points = np.array([[rng.choice([0, 1, rng.randrange(spec.q)])
                        for _ in range(3)] for _ in range(12)],
                      dtype=np.int64)
    exponents = np.array([(2, 0, 1), (0, 0, 0), (1, 1, 1), (0, 3, 0)])
    coeffs = np.array([1, p - 1, 0, rng.randrange(1, spec.q)])
    expected = [[spec.mul(c, spec.mul(spec.pow(x, a), spec.mul(
        spec.pow(y, b), spec.pow(z, e)))) for (a, b, e), c in
                 zip(exponents.tolist(), coeffs.tolist())]
                for x, y, z in points.tolist()]
    got = gf.code_arrays(spec).monomials(points, exponents, coeffs)
    assert got.tolist() == expected


@pytest.mark.parametrize("p,k", [(2, 17), (257, 2), (65537, 1), (5, 3)])
def test_code_arrays_powers_match_scalar_powers(p, k):
    # the Frobenius powers x^q and x^(q^2) the orbit search applies, and
    # small powers and products, on arrays holding 0 and 1
    spec = make_field(p, k)
    rng = random.Random(p + k)
    x = np.array([0, 1, p - 1] + [rng.randrange(spec.q) for _ in range(40)],
                 dtype=np.int64)
    y = x[::-1].copy()
    arith = gf.code_arrays(spec)
    for n in (1, 2, 3, p, spec.q, spec.q ** 2):
        assert arith.pow(x, n).tolist() == [spec.pow(a, n) for a in x.tolist()]
    c = rng.randrange(1, spec.q)
    assert (arith.term(c, [(x, 2), (y, 1)], x.shape).tolist()
            == [spec.mul(c, spec.mul(spec.pow(a, 2), b))
                for a, b in zip(x.tolist(), y.tolist())])
    grid = x[:42].reshape(6, 7)
    assert arith.pow(grid, p).tolist() == [[spec.pow(a, p) for a in r]
                                           for r in grid.tolist()]
