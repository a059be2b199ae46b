"""Row reduction over finite fields: echelon form, reduction, rank and
kernel over F_q and over the residue fields kappa(P).

This module owns the row format and the pivot rule.  Callers build rows
with `row`, read them with `entries`, and pass the field to every call.

- Format: the field picks it.  Over F_2 a row is an int bitset (bit j
  holds column j); over any other field it is a tuple of element codes.
- Pivot rule: every elimination pivots on the lowest nonzero column of
  each row (over F_2 the lowest set bit), scaled to 1.  `echelon` returns
  the reduced row-echelon form, with the rows sorted by pivot.  That form
  is unique, so stored bases (and everything derived from them, such as
  candidate indices) are canonical.

The stack routines eliminate numpy stacks of many small matrices at once,
by one lead-row step for every p: for each column, the first row holding
it is scaled to 1 and subtracted from every row holding it, itself
included, so each lead row leaves the matrix as it is used, with no row
swaps and no mask of used rows.  Over F_2, `_leads_f2` XORs rows packed
into words; over odd p, `_leads_mod_p` works on entries.  `rank_stack`
counts the columns that found a lead row, and `pivot_rows_f2` and
`pivot_rows_mod_p` store each lead row at its column and back-substitute,
giving `echelon`'s reduced forms (over F_2 of rows of one word);
`kernel_f2` and `kernel_mod_p` read the kernel vectors off those.
"""

from __future__ import annotations

import numpy as np


def row(spec, ncols, terms):
    """The row of length ncols with the given (column, code) entries and
    zeros elsewhere."""
    if spec.q == 2:
        out = 0
        for j, c in terms:
            if c:
                out |= 1 << j
        return out
    out = [0] * ncols
    for j, c in terms:
        out[j] = c
    return tuple(out)


def entries(spec, r):
    """(column, code) of every nonzero entry of the row, by column."""
    if spec.q == 2:
        out = []
        while r:
            low = r & -r
            out.append((low.bit_length() - 1, 1))
            r ^= low
        return out
    return [(j, c) for j, c in enumerate(r) if c]


def from_index(spec, index, ncols):
    """The row whose entries are the base-q digits of index, least
    significant first (over F_2, the bitset itself)."""
    if spec.q == 2:
        return index
    out = []
    for _ in range(ncols):
        index, c = divmod(index, spec.q)
        out.append(c)
    return tuple(out)


def combine(spec, coeffs, rows, ncols):
    """The sum of c * rows[i] over the entries (i, c) of the row coeffs."""
    if spec.q == 2:
        out = 0
        for i, _ in entries(spec, coeffs):
            out ^= rows[i]
        return out
    out = [0] * ncols
    for i, c in entries(spec, coeffs):
        for j, x in entries(spec, rows[i]):
            out[j] = spec.add(out[j], spec.mul(c, x))
    return tuple(out)


def _pivots(spec, rows):
    """Pivot column -> basis row, one row of `rows` at a time: the pivot is
    the lowest nonzero column, scaled to 1."""
    pivots = {}
    if spec.q == 2:
        for r in rows:
            while r:
                c = (r & -r).bit_length() - 1
                p = pivots.get(c)
                if p is None:
                    pivots[c] = r
                    break
                r ^= p
        return pivots
    for r in rows:
        while True:
            c = next((j for j, x in enumerate(r) if x), None)
            if c is None:
                break
            p = pivots.get(c)
            if p is None:
                inv = spec.inv(r[c])
                pivots[c] = tuple(spec.mul(inv, x) for x in r)
                break
            f = spec.neg(r[c])
            r = [spec.add(x, spec.mul(f, y)) for x, y in zip(r, p)]
    return pivots


def rank(spec, rows) -> int:
    return len(_pivots(spec, rows))


def echelon(spec, rows) -> tuple:
    """The reduced row-echelon form of the row space (see the module
    docstring for the pivot rule)."""
    pivots = _pivots(spec, rows)
    if spec.q == 2:
        for c in sorted(pivots, reverse=True):
            r = pivots[c]
            for c2, r2 in pivots.items():
                if c2 < c and (r2 >> c) & 1:
                    pivots[c2] = r2 ^ r
    else:
        for c in sorted(pivots, reverse=True):
            r = pivots[c]
            for c2, r2 in pivots.items():
                if c2 < c and r2[c]:
                    f = spec.neg(r2[c])
                    pivots[c2] = tuple(spec.add(x, spec.mul(f, y))
                                       for x, y in zip(r2, r))
    return tuple(pivots[c] for c in sorted(pivots))


def _pivot(spec, r):
    if spec.q == 2:
        return (r & -r).bit_length() - 1
    return next(j for j, x in enumerate(r) if x)


def reduce(spec, vec, ech):
    """vec minus its projection on the span of the echelon form ech: zero
    exactly when vec lies in that span."""
    if spec.q == 2:
        for r in ech:
            if vec & r & -r:
                vec ^= r
        return vec
    vec = list(vec)
    for r in ech:
        c = _pivot(spec, r)
        if vec[c]:
            f = spec.neg(vec[c])
            vec = [spec.add(x, spec.mul(f, y)) for x, y in zip(vec, r)]
    return tuple(vec)


def kernel(spec, rows, ncols) -> list:
    """Basis of {v : r . v = 0 for every row r}, one vector per non-pivot
    column of the echelon form, in column order."""
    pivots = [(_pivot(spec, r), r) for r in echelon(spec, rows)]
    taken = {c for c, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in taken:
            continue
        terms = [(free, 1)]
        for c, r in pivots:
            x = (r >> free) & 1 if spec.q == 2 else r[free]
            if x:
                terms.append((c, spec.neg(x)))
        basis.append(row(spec, ncols, terms))
    return basis


def transpose(spec, rows, ncols) -> list:
    """The nonzero rows of the transpose of the len(rows) x ncols matrix."""
    cols = [[] for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, c in entries(spec, r):
            cols[j].append((i, c))
    return [row(spec, len(rows), col) for col in cols if col]


def _leads_f2(rows):
    """The forward step over F_2 on a stack of bit-packed rows: an unsigned
    array of shape (n, rows, words), column c at bit c % b of word c // b
    for words of b bits.  Column by column, the first row holding the bit
    is XORed into every row holding it, itself included, so each lead row
    leaves the matrix as it is used.  Yields that lead row of each matrix
    per column, from the column's word on (shape (words from it, n)), and
    0 where no row holds the bit; columns past the highest bit of the last
    word are not visited.  The words before the column's word are zero by
    then, so only the words from it onward are XORed; they are eliminated
    as one contiguous block of shape (words, n, rows)."""
    n, _, words = rows.shape
    one = rows.dtype.type(1)
    rows = rows.transpose(2, 0, 1).copy()
    at = np.arange(n)
    last = int(np.bitwise_or.reduce(rows[-1], axis=None)) if words else 0
    for w in range(words):
        tail = rows[w:]
        for b in range(8 * rows.itemsize if w < words - 1
                       else last.bit_length()):
            has = (tail[0] & one << b) != 0
            first = has.argmax(axis=1)
            lead = tail[:, at, first] * has[at, first]
            tail ^= has * lead[:, :, None]
            yield lead


def rank_stack(rows, p):
    """The rank over F_p of each matrix of a stack, over F_2 of bit-packed
    rows (`_leads_f2`) and otherwise of entries (`_leads_mod_p`): the
    number of columns that found a lead row."""
    rank = np.zeros(len(rows), dtype=np.intp)
    for lead in _leads_f2(rows) if p == 2 else _leads_mod_p(rows, p):
        rank += lead[0] != 0
    return rank


def pivot_rows_f2(mats):
    """The reduced row-echelon forms over F_2 of a stack of 0/1 matrices of
    shape (n, rows, columns), at most 64 columns: (the rank of each, and
    basis of shape (n, columns), basis[:, c] the row whose pivot is column
    c as a bitset, 0 where column c is free).

    Each row is packed into one word, the narrowest unsigned type that
    holds it; `_leads_f2` stores each column's lead row at that column, and
    a back-substitution over the columns, highest first, clears every pivot
    column from the rows of the lower ones.  The rows are `echelon`'s."""
    width = mats.shape[2]
    if width > 64:
        raise ValueError(f"{width} columns do not fit one 64-bit word")
    lane = np.min_scalar_type((1 << width) - 1)
    powers = (1 << np.arange(width)).astype(lane)
    packed = np.einsum("irc,c->ir", mats, powers)
    basis = np.zeros((width, len(mats)), dtype=lane)
    for c, lead in enumerate(_leads_f2(packed[:, :, None])):
        basis[c] = lead[0]
    one = lane.type(1)
    for c in range(width - 1, 0, -1):
        lower = basis[:c]
        lower ^= ((lower & one << c) != 0) * basis[c]
    return np.count_nonzero(basis, axis=0), basis.T


def kernel_f2(basis):
    """The kernel vectors of reduced forms over F_2 given by their pivot rows
    (`pivot_rows_f2`), as bitsets at their free columns: at free column f,
    `kernel`'s vector with a 1 at f and bit f of each pivot row at that
    row's column.  Entries at pivot columns are no kernel vectors."""
    cols = np.arange(basis.shape[1], dtype=basis.dtype)
    one = basis.dtype.type(1)
    out = np.broadcast_to(one << cols, basis.shape).copy()
    for c in cols:
        out |= (basis[:, c, None] >> cols & one) << c
    return out


def _leads_mod_p(mats, p):
    """`_leads_f2`'s step over odd p, on a stack of matrices of entries in
    [0, p), shape (n, rows, columns): per column, the first row nonzero
    there mod p is scaled to 1 and subtracted, that many times, from every
    row holding the column, itself included, on the columns from it on.
    Yields each lead row from its column on, mod p (shape (columns from
    it, n)), 0 where no row holds the column.  Entries are reduced mod p
    only where a lead row is sought, so the dtype holds columns * p^2."""
    n, _, width = mats.shape
    cols = mats.transpose(2, 0, 1).astype(np.min_scalar_type(-width * p * p))
    at = np.arange(n)
    for c in range(width):
        tail = cols[c:]
        col = tail[0] % p
        lead = tail[:, at, (col != 0).argmax(axis=1)] % p
        lead = lead * _inverse_mod_p(lead[0], p) % p  # 0 has inverse 0
        tail -= col * lead[:, :, None]
        yield lead


def pivot_rows_mod_p(mats, p):
    """`pivot_rows_f2` over odd p, on a stack of matrices of entries in
    [0, p), shape (n, rows, columns): (the rank of each, and basis of shape
    (n, columns, columns), basis[:, c] the row whose pivot is column c, 0
    where column c is free), `_leads_mod_p`'s lead rows back-substituted,
    highest column first.  The rows are `echelon`'s."""
    n, _, width = mats.shape
    basis = np.zeros((width, n, width), np.min_scalar_type(-width * p * p))
    for c, lead in enumerate(_leads_mod_p(mats, p)):
        basis[c, :, c:] = lead.T
    for c in range(width - 1, 0, -1):
        lower = basis[:c, :, c:]
        lower -= lower[:, :, :1] % p * (basis[c, :, c:] % p)
    basis = basis.transpose(1, 0, 2) % p
    return np.count_nonzero(basis.any(axis=2), axis=1), basis


def kernel_mod_p(basis, p):
    """`kernel_f2` over odd p, as digit rows: (I - basis^T) mod p, at free
    column f `kernel`'s vector, with a 1 at f and -basis[c, f] at each
    pivot column c, in the basis' dtype, which holds columns * p^2."""
    eye = np.eye(basis.shape[1], dtype=basis.dtype)
    return (eye - basis.transpose(0, 2, 1)) % p


def _inverse_mod_p(a, p):
    """a^(p-2) mod p elementwise: the inverses of the nonzero entries."""
    out = np.ones_like(a)
    e = p - 2
    while e:
        if e & 1:
            out = out * a % p
        a = a * a % p
        e >>= 1
    return out
