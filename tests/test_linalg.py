import random

import numpy as np
import pytest

import oracles
from smoothsieve import gf, linalg

PRIME_FIELDS = [gf.make_field(p) for p in (2, 3, 5)]
ALL_FIELDS = PRIME_FIELDS + [gf.make_field(2, 2), gf.make_field(2, 3),
                             gf.make_field(3, 2)]


def dense(spec, r, ncols):
    v = [0] * ncols
    for j, c in linalg.entries(spec, r):
        v[j] = c
    return v


def dot(spec, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = spec.add(acc, spec.mul(x, y))
    return acc


def random_matrices(spec, seed, count=25):
    """Dense code matrices, some with rows that are combinations of others."""
    rng = random.Random(seed)
    for _ in range(count):
        ncols = rng.randrange(1, 11)
        rows = [[rng.randrange(spec.q) if rng.random() < 0.6 else 0
                 for _ in range(ncols)] for _ in range(rng.randrange(0, 9))]
        for _ in range(rng.randrange(0, 3)):
            if rows:
                a, b = rng.choice(rows), rng.choice(rows)
                f = rng.randrange(spec.q)
                rows.append([spec.add(x, spec.mul(f, y)) for x, y in zip(a, b)])
        yield rows, ncols


@pytest.mark.parametrize("spec", PRIME_FIELDS, ids=lambda s: f"F{s.q}")
def test_echelon_matches_dense_oracle(spec):
    for rows, ncols in random_matrices(spec, seed=spec.q):
        ech = linalg.echelon(spec, [linalg.row(spec, ncols, enumerate(r))
                                    for r in rows])
        want = oracles.dense_rref_mod_p(rows, spec.p)
        assert [dense(spec, r, ncols) for r in ech] == want
        assert linalg.rank(spec, [linalg.row(spec, ncols, enumerate(r))
                                  for r in rows]) == len(want)


@pytest.mark.parametrize("spec", ALL_FIELDS, ids=lambda s: f"F{s.q}")
def test_echelon_kernel_reduce_properties(spec):
    rng = random.Random(100 + spec.q)
    for rows, ncols in random_matrices(spec, seed=spec.q + 7):
        packed = [linalg.row(spec, ncols, enumerate(r)) for r in rows]
        ech = linalg.echelon(spec, packed)
        # canonical form: each pivot is 1, alone in its column, and pivots
        # increase down the rows
        pivots = [linalg.entries(spec, r)[0] for r in ech]
        assert all(c == 1 for _, c in pivots)
        cols = [j for j, _ in pivots]
        assert cols == sorted(set(cols))
        for i, r in enumerate(ech):
            v = dense(spec, r, ncols)
            assert all(v[j] == 0 for k, j in enumerate(cols) if k != i)
        # every input row lies in the span
        for r in packed:
            assert not linalg.entries(spec, linalg.reduce(spec, r, ech))
        # the kernel is annihilated by every row, and rank + nullity = ncols
        kern = linalg.kernel(spec, packed, ncols)
        for v in kern:
            for r in rows:
                assert dot(spec, r, dense(spec, v, ncols)) == 0
        assert linalg.rank(spec, packed) == len(ech)
        assert oracles.fills(spec, packed, ncols) == (len(ech) == ncols)
        assert len(ech) + len(kern) == ncols
        assert len(linalg.echelon(spec, kern)) == len(kern)
        # combine is the entrywise linear combination, with the
        # coefficients read from the base-q digits of an index
        coeffs = [rng.randrange(spec.q) for _ in rows]
        index = sum(c * spec.q ** i for i, c in enumerate(coeffs))
        want = [0] * ncols
        for c, r in zip(coeffs, rows):
            want = [spec.add(x, spec.mul(c, y)) for x, y in zip(want, r)]
        row = linalg.from_index(spec, index, len(rows))
        assert dense(spec, row, len(rows)) == coeffs
        assert dense(spec, linalg.combine(spec, row, packed, ncols),
                     ncols) == want
        # reduce leaves a residual that vanishes on the pivot columns and
        # differs from its input by an element of the span
        vec = [rng.randrange(spec.q) for _ in range(ncols)]
        res = dense(spec, linalg.reduce(
            spec, linalg.row(spec, ncols, enumerate(vec)), ech), ncols)
        assert all(res[j] == 0 for j in cols)
        diff = [spec.sub(x, y) for x, y in zip(vec, res)]
        back = linalg.reduce(spec, linalg.row(spec, ncols, enumerate(diff)),
                             ech)
        assert not linalg.entries(spec, back)


def test_f2_highest_bit_rank_agrees_with_echelon():
    # rank and fills pivot on the highest bit, echelon on the lowest
    f2 = gf.make_field(2)
    rng = random.Random(5)
    for _ in range(200):
        ncols = rng.randrange(1, 12)
        rows = [rng.getrandbits(ncols) | rng.getrandbits(ncols)
                for _ in range(rng.randrange(1, 16))]
        for n in range(len(rows)):
            prefix = rows[:n + 1]
            ech = linalg.echelon(f2, prefix)
            assert linalg.rank(f2, prefix) == len(ech)
        # fills stops reading rows once they span everything
        seen = []

        def stream():
            for r in rows:
                seen.append(r)
                yield r
        full = oracles.fills(f2, stream(), ncols)
        assert full == (len(linalg.echelon(f2, rows)) == ncols)
        if full:
            assert len(linalg.echelon(f2, seen[:-1])) == ncols - 1


def test_row_and_entries_round_trip():
    for spec in ALL_FIELDS:
        terms = [(0, 1), (3, spec.q - 1), (5, 1)]
        assert linalg.entries(spec, linalg.row(spec, 7, terms)) == terms
        assert linalg.transpose(spec, [linalg.row(spec, 7, terms)], 7) == [
            linalg.row(spec, 1, [(0, c)]) for _, c in terms]


def check_pivot_rows(mats, p):
    """The pivot rows and forward-only ranks of a stack over F_p against
    the dense oracle and `kernel`: each row at its pivot column, scaled to
    1 there, the nonzero rows `echelon`'s, and the kernel vectors at the
    free columns `kernel`'s."""
    width = mats.shape[2]
    spec = gf.make_field(p)
    if p == 2:
        rank, basis = linalg.pivot_rows_f2(mats)
        forward = linalg.rank_stack(pack_rows(mats), 2)
        rows = pivot_rows(basis)
        kernels, free = linalg.kernel_f2(basis).tolist(), basis == 0
    else:
        rank, basis = linalg.pivot_rows_mod_p(mats, p)
        forward = linalg.rank_stack(mats, p)
        rows = [[row for row in b if any(row)] for b in basis.tolist()]
        for b in basis.tolist():
            assert all(row[c] == 1 and not any(row[:c])
                       for c, row in enumerate(b) if any(row))
        kernels, free = linalg.kernel_mod_p(basis, p), ~basis.any(axis=2)
        kernels = [[tuple(v) for v in k] for k in kernels.tolist()]
    for m, r, f, row in zip(mats.tolist(), rank, forward, rows, strict=True):
        assert row == oracles.dense_rref_mod_p(m, p)
        assert r == f == len(row)
    for m, kern, fr in zip(mats.tolist(), kernels, free.tolist()):
        rows_p = [linalg.row(spec, width, enumerate(r)) for r in m]
        assert [v for v, x in zip(kern, fr) if x] == linalg.kernel(
            spec, rows_p, width)
    return rank


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_echelon_stack_matches_dense_oracle(p):
    # a stack mixing dense, sparse, rank-deficient and zero matrices
    rng = np.random.default_rng(p)
    dense_part = rng.integers(0, p, size=(20, 6, 9))
    sparse = rng.integers(0, p, size=(20, 6, 9)) * (rng.random((20, 6, 9))
                                                    < 0.2)
    low = rng.integers(0, p, size=(20, 6, 2)) @ rng.integers(0, p, (2, 9)) % p
    mats = np.concatenate([dense_part, sparse, low, np.zeros((3, 6, 9), int)])
    check_pivot_rows(mats.astype(np.uint8), p)


@pytest.mark.parametrize("p,width", [(7, 18), (31, 34)])
def test_pivot_rows_mod_p_hold_columns_times_p_squared(p, width):
    # entries are reduced mod p only where a lead row is sought, so the
    # dtype must hold columns * p^2: 882 at p = 7 (int16, where columns * p
    # = 126 would pick int8), and 32,674 at p = 31, just inside int16.  In
    # the last matrix, rows e_c + (p - 1) e_last lead every column but the
    # last, and its last row, p - 1 before the last column, loses (p - 1)^2
    # there per step, (columns - 1) (p - 1)^2 in all, to end at 0 mod p: a
    # wrapped entry would leave it nonzero and the rank full
    rng = np.random.default_rng(p)
    top = np.full((6, 40, width), p - 1)
    top[:, 1::2] = rng.integers(0, p, size=(6, 20, width))
    worst = np.zeros((1, 40, width), dtype=int)
    worst[0, :width - 1, :width - 1] = np.eye(width - 1, dtype=int)
    worst[0, :width - 1, -1] = worst[0, width - 1, :-1] = p - 1
    worst[0, width - 1, -1] = (width - 1) % p
    mats = np.concatenate([np.full((2, 40, width), p - 1), top,
                           rng.integers(0, p, size=(6, 40, width)),
                           rng.integers(p - 3, p, size=(6, 40, width)),
                           worst])
    rank = check_pivot_rows(mats.astype(np.uint8), p)
    assert rank[:2].tolist() == [1, 1] and rank[-1] == width - 1
    assert max(rank) == width


def pivot_rows(basis):
    """The nonzero rows of `pivot_rows_f2`'s basis, by pivot column, as
    0/1 lists."""
    return [[[int(x) >> j & 1 for j in range(len(row))] for x in row if x]
            for row in basis.tolist()]


@pytest.mark.parametrize("width", [63, 64])
def test_echelon_stack_f2_up_to_one_word(width):
    # the last columns of a 64-bit word, bit 63 the int64 sign bit, against
    # the swap-based elimination the pivot rows replaced
    rng = np.random.default_rng(width)
    dense_part = rng.integers(0, 2, size=(10, 8, width))
    edge = np.zeros((10, 8, width), dtype=np.int64)
    edge[:, :, width - 6:] = rng.integers(0, 2, size=(10, 8, 6))
    mats = np.concatenate([dense_part, edge]).astype(np.uint8)
    rank, basis = linalg.pivot_rows_f2(mats)
    want, pivots, reduced = oracles.echelon_stack_f2_by_swaps(mats)
    assert rank.tolist() == want.tolist()
    for r, piv, row, rows, red, m in zip(want, pivots, basis.tolist(),
                                         pivot_rows(basis), reduced.tolist(),
                                         mats.tolist()):
        assert rows == red[:r] == oracles.dense_rref_mod_p(m, 2)
        assert [c for c, x in enumerate(row) if x] == piv[:r].tolist()


@pytest.mark.parametrize("width", [65, 70])
def test_echelon_stack_f2_refuses_more_than_64_columns(width):
    # columns from 64 on would be dropped from the one-word rows, and the
    # rank read from column 3 alone
    mats = np.zeros((1, 3, width), dtype=np.uint8)
    mats[0, 0, 3] = mats[0, 1, 64] = mats[0, 2, width - 1] = 1
    with pytest.raises(ValueError, match="columns"):
        linalg.pivot_rows_f2(mats)
    with pytest.raises(ValueError, match="columns"):
        oracles.echelon_stack_f2_by_swaps(mats)
    linalg.pivot_rows_mod_p(mats, 3)  # odd p has no word limit


@pytest.mark.parametrize("width", [1, 9, 63, 64])
def test_pivot_rows_f2_match_dense_oracle(width):
    # dense, sparse, rank-deficient and all-zero stacks, rows padded with
    # zero rows as `sieve._conditions` pads the points of lower degree, and
    # tall stacks of more rows than columns
    rng = np.random.default_rng(200 + width)
    rows = 10
    dense_part = rng.integers(0, 2, size=(12, rows, width))
    sparse = rng.integers(0, 2, size=(12, rows, width)) * (
        rng.random((12, rows, width)) < 0.1)
    low = rng.integers(0, 2, size=(12, rows, 2)) @ rng.integers(
        0, 2, (2, width)) % 2
    padded = rng.integers(0, 2, size=(12, rows, width))
    padded[:, rng.integers(1, rows):] = 0
    padded[:6, ::3] = 0
    tall = rng.integers(0, 2, size=(4, width + 8, width))
    for mats in (np.concatenate([dense_part, sparse, low, padded]),
                 np.zeros((3, rows, width), int), tall):
        rank, basis = linalg.pivot_rows_f2(mats.astype(np.uint8))
        assert basis.shape == (len(mats), width)
        want = [oracles.dense_rref_mod_p(m, 2) for m in mats.tolist()]
        assert pivot_rows(basis) == want
        # each row sits at its pivot column, and a free column holds 0
        for row in basis.tolist():
            assert all((x & -x).bit_length() - 1 == c
                       for c, x in enumerate(row) if x)
        assert rank.tolist() == [oracles.dense_rank_mod_p(m, 2)
                                 for m in mats.tolist()]
        assert rank.tolist() == linalg.rank_stack(
            pack_rows(mats), 2).tolist()
        # the kernel vectors at the free columns are `kernel`'s
        f2 = gf.make_field(2)
        for m, row, kern in zip(mats.tolist(), basis.tolist(),
                                linalg.kernel_f2(basis).tolist()):
            rows_f2 = [linalg.row(f2, width, enumerate(r)) for r in m]
            assert [v for v, x in zip(kern, row) if not x] == linalg.kernel(
                f2, rows_f2, width)
    assert max(rank) == width  # the tall stacks reach full column rank


def pack_rows(mats):
    """Bit-packed rows for `rank_stack` over F_2: column c at bit c % 64 of
    uint64 word c // 64."""
    packed = np.packbits(mats.astype(np.uint8), axis=2, bitorder="little")
    packed = np.pad(packed, ((0, 0), (0, 0), (0, -packed.shape[2] % 8)))
    return packed.view(np.uint64)


@pytest.mark.parametrize("width", [1, 9, 63, 64, 65, 130])
def test_rank_stack_f2_matches_dense_oracle(width):
    # dense, sparse, rank-deficient and all-zero stacks, over one to three
    # 64-bit words
    rng = np.random.default_rng(width)
    rows = 12
    dense_part = rng.integers(0, 2, size=(15, rows, width))
    sparse = rng.integers(0, 2, size=(15, rows, width)) * (
        rng.random((15, rows, width)) < 0.1)
    low = rng.integers(0, 2, size=(15, rows, 3)) @ rng.integers(
        0, 2, (3, width)) % 2
    tall = rng.integers(0, 2, size=(4, width + 8, width))
    for mats in (np.concatenate([dense_part, sparse, low,
                                 np.zeros((3, rows, width), int)]), tall):
        packed = pack_rows(mats)
        rank = linalg.rank_stack(packed, 2)
        assert np.array_equal(packed, pack_rows(mats))  # left as it was
        assert rank.tolist() == [oracles.dense_rank_mod_p(m, 2)
                                 for m in mats.tolist()]
    assert max(rank) == width  # the tall stacks reach full column rank
