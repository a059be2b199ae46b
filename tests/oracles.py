"""Independent oracles for the test suite.

These deliberately avoid the library's linear-algebra paths: dense
per-entry elimination, per-point scans of P^n(F_{q^e}) with scalar
`MPoly.evaluate_codes`, explicit zero-cycle enumeration, brute-force
matrix groups, the former point-search smoothness certificate and
closed-form point counts.  The former orbit route of exact scans of P^n,
one certificate per GL_{n+1}(F_q)-orbit of scan-clean forms, is the
oracle of the library's degree bounds.  The former per-point jet
conditions and per-point kernel scan are kept too; those use `linalg`'s
row reduction, one closed point at a time.  So is the former per-degree
scan, one array of conditions per degree, eliminated and classified one
degree at a time, over F_2 by the former swap-based elimination and its
kernel indices.  So is the sampled classifier's
product of functionals and digits, one closed point at a time, and the
former rank certificate, one candidate at a time over F_q with its own
elimination, and its former row build, one polynomial product and one
reduction per multiple, and the former draw, one Python int per candidate,
and the former embedder loop, one point search per draw, and the former
low-degree predictor, one Euler factor per closed point of V and a
separate enumeration of X - V.
Slow and simple on purpose.  The last section holds helpers that only the
tests call.
"""

import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb

import numpy as np

from smoothsieve import gf, linalg, sieve, variety, zeta
from smoothsieve.graded import GradedIdeal
from smoothsieve.mpoly import MPoly, monomial_index, monomials_of_degree


def dense_rank_mod_p(rows, p):
    return len(dense_rref_mod_p(rows, p))


def dense_rref_mod_p(rows, p):
    """Gauss-Jordan elimination on lists of ints mod p: the nonzero rows of
    the reduced row-echelon form, pivots scaled to 1, in pivot order."""
    rows = [list(r) for r in rows if any(x % p for x in r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank]


def multiples_matrix(gens, d, nvars, p):
    """Rows of m*g over the degree-d monomial basis, as plain int lists."""
    monos = monomials_of_degree(nvars, d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        dg = g.homogeneous_degree()
        if dg > d:
            continue
        for m in monomials_of_degree(nvars, d - dg):
            row = [0] * len(monos)
            for e, c in g.terms.items():
                row[index[tuple(a + b for a, b in zip(e, m))]] = c
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# The former library point scans: one code tuple of P^n(F_{q^e}) at a time,
# tested with scalar MPoly.evaluate_codes, Frobenius orbits followed with
# `frobenius_code`.

@lru_cache(maxsize=None)
def _frobenius_images(spec):
    """The p-th powers of the power basis 1, x, ..., x^(k-1) of spec."""
    return tuple(spec.pow(spec.from_digits([0] * i + [1]) if i else 1, spec.p)
                 for i in range(spec.k))


def frobenius_code(spec, a, times=1):
    """`times` applications of the p-power map to the code a, applied to
    its digits by F_p-linearity."""
    for _ in range(times % spec.k):
        out = 0
        for i, c in enumerate(spec.digits(a)):
            if c:
                out = spec.add(out, spec.mul(_frobenius_images(spec)[i], c))
        a = out
    return a


def frobenius(a, q=None):
    """a ** q for a FieldElement; by default the p-power Frobenius."""
    return a ** (a.spec.p if q is None else q)


def projective_points(spec, nvars):
    """Points of P^{nvars-1}(F) as code tuples, first nonzero coordinate 1:
    leading index ascending, then tail codes ascending."""
    for lead in range(nvars):
        for rest in product(range(spec.q), repeat=nvars - lead - 1):
            yield (0,) * lead + (1,) + rest


def contains_code_point(scheme, coords, ext):
    if any(e.evaluate_codes(coords, ext) != 0 for e in scheme.equations):
        return False
    if scheme.removed and all(r.evaluate_codes(coords, ext) == 0
                              for r in scheme.removed):
        return False
    return True


def raw_point_count(scheme, e):
    """|scheme(F_{q^e})|, one point at a time."""
    base = scheme.spec
    ext = gf.make_field(base.p, base.k * e)
    return sum(1 for pt in projective_points(ext, scheme.nvars)
               if contains_code_point(scheme, pt, ext))


def enumerate_closed_points(scheme, max_degree):
    """Closed points of degree <= max_degree by following the q-power
    Frobenius orbit of each point, ordered by (degree, representative)."""
    base = scheme.spec
    out = []
    for e in range(1, max_degree + 1):
        ext = gf.make_field(base.p, base.k * e)
        seen = set()
        bucket = []
        for pt in projective_points(ext, scheme.nvars):
            if pt in seen or not contains_code_point(scheme, pt, ext):
                continue
            orbit = [pt]
            cur = pt
            while True:
                cur = tuple(frobenius_code(ext, c, base.k) for c in cur)
                if cur == pt:
                    break
                orbit.append(cur)
            if len(orbit) != e:
                continue  # proper subfield point, listed at its own degree
            seen.update(orbit)
            bucket.append(variety.ClosedPoint(e, ext, tuple(sorted(orbit)),
                                              min(orbit)))
        bucket.sort(key=lambda P: P.representative)
        out.extend(bucket)
    return out


def find_point(scheme, e_max):
    """The first point of the scheme over F_{q^e}, e <= e_max, in
    `projective_points` order: (coords, field), or None."""
    base = scheme.spec
    for e in range(1, e_max + 1):
        ext = gf.make_field(base.p, base.k * e)
        for pt in projective_points(ext, scheme.nvars):
            if contains_code_point(scheme, pt, ext):
                return pt, ext
    return None


# ---------------------------------------------------------------------------
# Naive singular-point exhaustion for plane curves over F_2: for every
# candidate f, evaluate f and its three partials at every point of
# P^2(F_{2^e}) for e <= e_max, with no orbit grouping and no certificates.

def f2_plane_curve_oracle(d, e_max=6):
    """Boolean array over all 2^dim(S_d) candidates: True = smooth.

    Vectorized across candidates but logically a per-curve scan: each
    projective point contributes its table of monomial values, and a curve
    is singular there when the value and all three partial values vanish.
    """
    nvars = 3
    monos = monomials_of_degree(nvars, d)
    nm = len(monos)
    n = 1 << nm
    # partial exponent shifts: partial_j(x^e) = e_j x^{e - delta_j} mod 2
    monos_d1 = monomials_of_degree(nvars, d - 1)
    idx_d1 = {m: i for i, m in enumerate(monos_d1)}
    pshift = []
    for j in range(nvars):
        col = []
        for m in monos:
            if m[j] % 2 == 1:
                sh = list(m)
                sh[j] -= 1
                col.append(idx_d1[tuple(sh)])
            else:
                col.append(-1)
        pshift.append(col)

    smooth = np.ones(n, dtype=bool)
    smooth[0] = False  # the zero form is not a smooth curve
    cand = np.arange(n, dtype=np.uint64)
    cand_bits = [((cand >> np.uint64(i)) & np.uint64(1)).astype(bool)
                 for i in range(nm)]
    for e in range(1, e_max + 1):
        ext = gf.make_field(2, e)
        for lead in range(nvars):
            for rest in product(range(ext.q), repeat=nvars - lead - 1):
                pt = (0,) * lead + (1,) + rest
                mono_vals = [_mono_value(m, pt, ext) for m in monos]
                d1_vals = [_mono_value(m, pt, ext) for m in monos_d1]
                vals = np.zeros(n, dtype=np.int64)
                for i in range(nm):
                    if mono_vals[i]:
                        vals[cand_bits[i]] ^= mono_vals[i]
                singular_here = vals == 0
                for j in range(nvars):
                    if not singular_here.any():
                        break
                    pv = np.zeros(n, dtype=np.int64)
                    for i in range(nm):
                        t = pshift[j][i]
                        if t >= 0 and d1_vals[t]:
                            pv[cand_bits[i]] ^= d1_vals[t]
                    singular_here &= pv == 0
                smooth &= ~singular_here
    return smooth


def _mono_value(expo, pt, ext):
    v = 1
    for x, nexp in zip(pt, expo):
        if nexp:
            if x == 0:
                return 0
            v = ext.mul(v, ext.pow(x, nexp))
    return v


# ---------------------------------------------------------------------------
# The former per-point jet conditions and kernel scan: scalar FieldSpec
# arithmetic for each closed point's monomial values and gradients, and one
# linalg.kernel per point, enumerated as an index array.

def _x_jacobian_pivots(X, point):
    """RREF rows of X's homogeneous Jacobian at the representative, or ()
    for a free ambient; raises if X is not smooth of its declared
    dimension at the point."""
    if not X.equations:
        return ()
    ext = point.residue
    rep = point.representative
    pivots = linalg.echelon(ext, [
        linalg.row(ext, X.nvars, ((j, g.partial(j).evaluate_codes(rep, ext))
                                  for j in range(X.nvars)))
        for g in X.equations])
    m = X.dim()
    if m is not None and len(pivots) != X.ambient_dim - m:
        raise sieve.UnsupportedPresentation(
            f"X is not smooth of dimension {m} at {point.rep_strings()}")
    return pivots


@lru_cache(maxsize=None)
def _lowering(nvars, d):
    """Per variable j: (position of m, position of m / x_j in degree d - 1,
    m_j) for each degree-d monomial m with m_j > 0."""
    below = monomial_index(nvars, d - 1) if d else {}
    return tuple(tuple((t, below[m[:j] + (m[j] - 1,) + m[j + 1:]], m[j])
                       for t, m in enumerate(monomials_of_degree(nvars, d))
                       if m[j])
                 for j in range(nvars))


def point_condition_vectors(X, point, d):
    """Per-condition vectors over kappa(P), indexed by the degree-d
    monomial basis, 1 + nvars of them (some may be zero): f(P) = 0 and the
    components of grad f(P) reduced modulo the row space of X's Jacobian
    at P."""
    ext = point.residue
    rep = point.representative
    below = values = [1]  # monomial values at P, one degree at a time
    for e in range(1, d + 1):
        below, values = values, [0] * len(monomials_of_degree(X.nvars, e))
        for j, lowered in enumerate(_lowering(X.nvars, e)):
            for t, i, _ in lowered:
                values[t] = ext.mul(below[i], rep[j])
    grads = []
    for lowered in _lowering(X.nvars, d):
        col = [0] * len(values)
        for t, i, n in lowered:
            col[t] = ext.mul(below[i], n % ext.p)
        grads.append(col)
    for prow in _x_jacobian_pivots(X, point):
        (pc, _), *rest = linalg.entries(ext, prow)
        lead = grads[pc]
        for j, c in rest:
            grads[j] = [ext.sub(a, ext.mul(c, b)) for a, b in zip(grads[j], lead)]
        grads[pc] = [0] * len(values)
    return [values] + grads


def point_functionals(X, space, point):
    """The jet conditions at one closed point as an int array over F_p of
    shape (rows, candidate digits), from `point_condition_vectors`."""
    spec = X.spec
    skip = int(space.d % spec.p != 0)  # Euler, as in the scan
    vecs = np.array(point_condition_vectors(X, point, space.d)[skip:])
    table = sieve._fp_table(spec, point.residue)
    funcs = (table[vecs].transpose(0, 3, 1, 2)
             .reshape(-1, len(space.monomials) * spec.k).astype(np.int64))
    lift = sieve._lift(space)
    return funcs if lift is None else funcs @ lift % spec.p


def scan_all_per_point(space, conds):
    """ell for every candidate index of a `sieve._conditions` stack
    (degrees, funcs): per closed point, the F_p-kernel of its functionals
    by linalg.kernel, enumerated as an index array."""
    spec = space.problem.field
    fp = gf.make_field(spec.p)
    width = spec.k * space.rank
    ell = np.zeros(spec.q ** space.rank, dtype=np.int64)
    for degree, funcs in zip(*conds):
        basis = linalg.kernel(fp, [linalg.row(fp, width, enumerate(r))
                                   for r in funcs.tolist()], width)
        if len(basis) == width:
            ell += degree    # vacuous conditions: singular everywhere
        elif basis:          # an empty basis leaves only f = 0
            ell[_span_indices(fp, basis)] += degree  # distinct indices
    return ell


def ells_by_products(space, conds, indices):
    """ell for each candidate index, on a `sieve._conditions` stack: per
    closed point, its functionals' values on the index's base-p digits, as
    one float64 product mod p (the sums stay far below 2^53), and an
    all-zero test."""
    p = space.problem.field.p
    width = space.problem.field.k * space.rank
    digits = np.array([[index // p ** t % p for t in range(width)]
                       for index in indices], dtype=np.float64)
    digits = digits.reshape(len(indices), width)
    ell = np.zeros(len(indices), dtype=np.int64)
    for degree, funcs in zip(*conds):
        values = digits @ funcs.T.astype(np.float64) % p
        ell += degree * ~values.any(axis=1)
    return ell


# ---------------------------------------------------------------------------
# The former per-degree scan: the jet conditions as one array per degree
# of closed points, without padding rows, one elimination per block of a
# degree's points and XOR tables rebuilt for every batch of candidates.

def per_degree_conditions(X, space, groups):
    """[(e, funcs)] per degree e with points, funcs of shape (points of
    degree e, rows of degree e, candidate digits): `sieve._conditions` of
    each degree's group alone, so no row is padding."""
    return [(e, sieve._conditions(X, space, [(e, ext, orbits)])[1])
            for e, ext, orbits in groups if len(orbits)]


# entries per block, as the library's budgets were when this path ran
DIGIT_ENTRIES, BLOCK_ENTRIES = 1 << 16, 1 << 14


def scan_all_per_degree(space, conds, ell=None):
    """ell for every candidate index, or the marks of `ell` set to 1, from
    per-degree conditions: per degree, one elimination brings a block of
    points' functionals to reduced echelon form, and the F_p-kernels of its
    points of each rank are enumerated as index arrays."""
    p = space.problem.field.p
    mark = ell is not None
    if not mark:
        ell = np.zeros(space.problem.field.q ** space.rank, dtype=np.int64)
    for degree, group in conds:
        _, rows, width = group.shape
        step = max(1, DIGIT_ENTRIES // max(rows * width, 1))
        for lo in range(0, len(group), step):
            rank, pivots, mats = (
                echelon_stack_f2_by_swaps(group[lo:lo + step]) if p == 2
                else echelon_stack(group[lo:lo + step], p))
            for r in np.flatnonzero(np.bincount(rank)).tolist():
                sel = np.flatnonzero(rank == r)
                if r == 0 and mark:  # vacuous: singular everywhere
                    ell[:] = 1
                elif r == 0:
                    ell += degree * len(sel)
                elif r < width:               # a full rank leaves only f = 0
                    for members in (
                            kernel_indices_f2(mats[sel], pivots[sel], r)
                            if p == 2 else kernel_indices(
                                p, mats[sel], pivots[sel], r)):
                        if mark:
                            ell[members.ravel()] = 1
                        else:
                            np.add.at(ell, members.ravel(), degree)
    return ell


def echelon_stack(mats, p):
    """The reduced row-echelon forms of a stack of matrices over F_p (an
    array of entries in [0, p), shape (n, rows, columns)), all eliminated
    at once, column by column, with `linalg.echelon`'s pivot rule and row
    swaps, as the library's odd-p elimination was: (the rank of each, the
    pivot column of each of its rows, -1 past the rank, and the reduced
    stack).

    A matrix with no pivot in a column gets an all-zero lead row, which
    leaves it as it is.  Entries are reduced mod p only where a pivot is
    sought and at the end, so the dtype holds columns * p^2."""
    n, rows, width = mats.shape
    mats = mats.astype(np.min_scalar_type(-width * p * p))
    rank = np.zeros(n, dtype=np.intp)
    pivots = np.full((n, rows), -1, dtype=np.intp)
    below = np.arange(rows)
    at = np.arange(n)
    for c in range(width):
        col = mats[:, :, c] % p
        live = (col != 0) & (below >= rank[:, None])
        hit = live.any(axis=1)
        src, dst = live.argmax(axis=1), np.minimum(rank, rows - 1)
        first = mats[at, src] % p
        lead = first * (linalg._inverse_mod_p(first[:, c], p)
                        * hit)[:, None] % p
        mats[at, src] = np.where(hit[:, None], mats[at, dst], mats[at, src])
        col[at, src] = np.where(hit, col[at, dst], col[at, src])
        mats -= col[:, :, None] * lead[:, None, :]
        mats[at, dst] = np.where(hit[:, None], lead, mats[at, dst])
        pivots[at[hit], dst[hit]] = c
        rank += hit
    mats %= p
    return rank, pivots, mats


def kernel_indices(p, mats, pivots, rank):
    """The candidate index of every element of each point's F_p-kernel, from
    `echelon_stack`'s reduced forms over odd p of one rank below their
    width, as the library enumerated them: blocks of shape (points, p^dim)
    of at most DIGIT_ENTRIES entries or one point.

    The kernel vector of free column f has a 1 there and -R[t, f] at the
    pivot column of row t.  Free columns are lone, so a combination's index
    adds a * p^f over them, and its digits at the pivot columns are summed
    and reduced mod p."""
    n, _, width = mats.shape
    dim = width - rank
    pivots = pivots[:, :rank]
    free = np.ones((n, width), dtype=bool)
    free[np.arange(n)[:, None], pivots] = False
    free = np.nonzero(free)[1].reshape(n, dim)
    coef = -np.take_along_axis(mats[:, :rank].astype(np.int64),
                               free[:, None, :], axis=2) % p
    weights = np.int64(p) ** pivots                         # (n, rank)
    steps = np.int64(p) ** free                             # (n, dim)
    size = p ** dim
    block = max(1, DIGIT_ENTRIES // (size * (rank + 1)))
    for lo in range(0, n, block):
        part = slice(lo, lo + block)
        members = np.zeros((len(steps[part]), size), dtype=np.int64)
        digits = np.zeros((len(members), size, rank), dtype=np.int64)
        vecs = coef[part].transpose(2, 0, 1)   # (dim, points, rank)
        for j, (s, v) in enumerate(zip(steps[part].T, vecs)):
            span = p ** j
            for a in range(1, p):
                members[:, a * span:(a + 1) * span] = (members[:, :span]
                                                       + a * s[:, None])
                digits[:, a * span:(a + 1) * span] = (digits[:, :span]
                                                      + a * v[:, None, :])
        yield members + np.einsum("ist,it->is", digits % p, weights[part])


def echelon_stack_f2_by_swaps(mats):
    """`echelon_stack` over F_2 as the library's was: each row packed into an
    int64 bitset, and per column the first unused row holding the bit
    swapped into place below the rank and XORed into the rest, with the
    pivot columns per row and the reduced stack unpacked to int64 0/1."""
    n, rows, width = mats.shape
    if width > 64:
        raise ValueError(f"{width} columns do not fit one int64 bitset")
    bits = 1 << np.arange(width, dtype=np.int64)
    packed = mats @ bits
    rank = np.zeros(n, dtype=np.intp)
    pivots = np.full((n, rows), -1, dtype=np.intp)
    below = np.arange(rows)
    at = np.arange(n)
    for c in range(width):
        live = (((packed >> c) & 1) != 0) & (below >= rank[:, None])
        hit = live.any(axis=1)
        src, dst = live.argmax(axis=1), np.minimum(rank, rows - 1)
        lead = packed[at, src] * hit
        packed[at, src] = np.where(hit, packed[at, dst], packed[at, src])
        packed ^= ((packed >> c) & 1) * lead[:, None]
        packed[at, dst] = np.where(hit, lead, packed[at, dst])
        pivots[at[hit], dst[hit]] = c
        rank += hit
    return rank, pivots, ((packed[:, :, None] & bits) != 0).astype(np.uint8)


def kernel_indices_f2(mats, pivots, rank):
    """`kernel_indices` over F_2 as the library's was: from the swap-based
    reduced forms, the kernel vector of free column f is 2^f plus the
    entries R[t, f] times 2^(pivot of row t), and every XOR of a subset of
    a point's kernel vectors is a member, in blocks of at most
    DIGIT_ENTRIES entries or one point."""
    n, _, width = mats.shape
    dim = width - rank
    pivots = pivots[:, :rank]
    free = np.ones((n, width), dtype=bool)
    free[np.arange(n)[:, None], pivots] = False
    free = np.nonzero(free)[1].reshape(n, dim)
    coef = np.take_along_axis(mats[:, :rank].astype(np.int64),
                              free[:, None, :], axis=2)
    steps = np.int64(2) ** free + np.einsum("itj,it->ij", coef,
                                             np.int64(2) ** pivots)
    block = max(1, DIGIT_ENTRIES // 2 ** dim)
    for lo in range(0, n, block):
        part = steps[lo:lo + block]
        members = np.zeros((len(part), 2 ** dim), dtype=np.int64)
        for j, s in enumerate(part.T):
            np.bitwise_xor(members[:, :1 << j], s[:, None],
                           out=members[:, 1 << j:2 << j])
        yield members


def ells_per_degree(space, conds, digits):
    """ell for each candidate (a row of the digit array): per batch of
    candidates and per degree, the number of points whose conditions all
    vanish on it, by XOR tables over F_2 and by products mod p otherwise."""
    p = space.problem.field.p
    out = np.zeros(len(digits), dtype=np.int64)
    step = max(1, DIGIT_ENTRIES // max(digits.shape[1], 1))
    for lo in range(0, len(digits), step):
        batch = digits[lo:lo + step]
        batch = (batch.T.astype(np.intp) if p == 2
                 else batch.astype(np.float64))
        for degree, group in conds:
            hits = (_hits_f2(batch, group) if p == 2
                    else _hits_mod_p(batch, group, p))
            out[lo:lo + step] += degree * hits
    return out


def _hits_mod_p(digits, group, p):
    n, width = digits.shape
    rows = group.shape[1]
    hits = np.zeros(n, dtype=np.int64)
    per_block = max(1, BLOCK_ENTRIES // rows // max(width, n))
    for i in range(0, len(group), per_block):
        block = group[i:i + per_block]
        prod = digits @ np.concatenate(block, dtype=np.float64).T
        prod /= p
        hit = (prod != np.floor(prod)).reshape(n, -1, rows)
        hits += (~hit.any(axis=2)).sum(axis=1)
    return hits


def _hits_f2(octets, group):
    """Per column of candidate bytes, the points of the group whose
    functionals all vanish on it: each point's rows packed into the
    narrowest lane that holds them, `_xor_images` per block."""
    nbytes, n = octets.shape
    points, rows, width = group.shape
    lane = np.dtype(next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                         if np.iinfo(t).bits >= min(rows, 64)))
    words = -(-rows // 64)
    size = lane.itemsize * words                    # bytes per point
    per_block = max(1, 8 * BLOCK_ENTRIES // max(256 * nbytes, n) // size)
    hits = np.zeros(n, dtype=np.int64)
    for i in range(0, points, per_block):
        block = group[i:i + per_block]
        slots = -(-len(block) * size // 8) * 8 // size
        packed = np.zeros((8 * nbytes, slots, size), dtype=np.uint8)
        packed[:width, :len(block), :-(-rows // 8)] = np.packbits(
            block, axis=1, bitorder="little").transpose(2, 0, 1)
        image = _xor_images(octets, packed.reshape(
            8 * nbytes, slots * size).view(np.uint64))
        lanes = image.view(lane).reshape(n, slots, words)[:, :len(block)]
        hits += (~lanes.any(axis=2)).sum(axis=1)
    return hits


def _xor_images(octets, bits):
    """Per column of candidate bytes, the XOR of the images (uint64 rows of
    `bits`) of its set bits: T_j[v], the XOR of the images of the set bits
    of v at byte j, built by doubling in tables of about `BLOCK_ENTRIES`
    words, and read at byte j."""
    nbytes, n = octets.shape
    bits = bits.reshape(nbytes, 8, bits.shape[1])
    image = np.zeros((n, bits.shape[2]), dtype=np.uint64)
    step = -(-BLOCK_ENTRIES // (256 * max(nbytes, 1)))
    for lo in range(0, bits.shape[2], step):
        cols = bits[:, :, lo:lo + step]
        table = np.zeros((nbytes, 256, cols.shape[2]), dtype=np.uint64)
        for b in range(8):
            np.bitwise_xor(table[:, :1 << b], cols[:, b, None],
                           out=table[:, 1 << b:2 << b])
        for j in range(nbytes):
            image[:, lo:lo + step] ^= np.take(table[j], octets[j], axis=0)
    return image


def _span_indices(fp, basis):
    """The index of every F_p-combination of the basis vectors (linalg rows
    over F_p), by iterated p-fold extension."""
    if fp.p == 2:  # the rows are bitsets and digit addition is XOR
        members = np.zeros(1, dtype=np.int64)
        for b in basis:
            members = np.concatenate([members, members ^ np.int64(b)])
        return members
    # Over odd p the digit sum carries.  A column where exactly one vector
    # has a 1 holds that vector's coefficient, so its part of the index
    # adds; the other (pivot) columns are summed as digits and reduced.
    p = fp.p
    vecs = np.array(basis, dtype=np.int64)
    weights = p ** np.arange(vecs.shape[1], dtype=np.int64)
    lone = ((vecs != 0).sum(axis=0) == 1) & (vecs.max(axis=0) == 1)
    members = np.zeros(1, dtype=np.int64)
    digits = np.zeros((1, int((~lone).sum())), dtype=np.int64)
    for v in vecs:
        step = int(v[lone] @ weights[lone])
        members = np.concatenate([members + a * step for a in range(p)])
        digits = np.concatenate([digits + a * v[~lone] for a in range(p)])
    return members + digits % p @ weights[~lone]


# ---------------------------------------------------------------------------
# The former per-candidate draw and digit splits: one Python int per
# candidate, one randrange call per coordinate over q != 2.

def draw(rng, q, rank):
    """A uniform candidate index: one getrandbits call over F_2, one
    randrange per coordinate otherwise."""
    if q == 2:
        return rng.getrandbits(rank)
    return sum(rng.randrange(q) * q ** i for i in range(rank))


def index_digits(space, indices):
    """The digit array of candidate indices of the space, one index at a
    time: little-endian index bytes over p = 2, base-p digits otherwise."""
    spec = space.problem.field
    p, width = spec.p, spec.k * space.rank
    if p == 2:
        nbytes = -(-width // 8)
        rows = [list(index.to_bytes(nbytes, "little")) for index in indices]
        return np.array(rows, dtype=np.uint8).reshape(len(indices), nbytes)
    rows = []
    for index in indices:
        row = []
        for _ in range(width):
            index, digit = divmod(index, p)
            row.append(digit)
        rows.append(row)
    return np.array(rows, dtype=np.uint8).reshape(len(indices), width)


def digit_indices(digits, p):
    """The candidate index of each row of a digit array (p < 10 when odd),
    read back through the bytes or the base-p numeral."""
    if p == 2:
        return [int.from_bytes(row.tobytes(), "little") for row in digits]
    return [int("".join(map(str, row[::-1])) or "0", p)
            for row in digits.tolist()]


# ---------------------------------------------------------------------------
# Explicit effective zero-cycle enumeration: multisets of closed points
# weighted by degree.

def zero_cycles_pointwise(point_degrees, n_max):
    """table[n][ell] for cycles of degree <= n_max, by literal recursion
    over individual points (every cycle visited once).  Tiny inputs only."""
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]

    def rec(j, used, ell):
        if j == len(point_degrees):
            table[used][ell] += 1
            return
        d = point_degrees[j]
        rec(j + 1, used, ell)  # multiplicity 0
        mult = 1
        while used + mult * d <= n_max:
            rec(j + 1, used + mult * d, ell + d)
            mult += 1

    rec(0, 0, 0)
    return table


def zero_cycles_by_support(point_degrees, n_max):
    """table[n][ell], enumerating cycle shapes explicitly per degree class:
    within a class the multiplicity compositions are listed one by one and
    the choice of distinct points contributes a binomial factor."""
    from collections import Counter
    from math import comb

    classes = sorted(Counter(point_degrees).items())
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]

    def comps(total, parts):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for head in range(1, total - parts + 2):
            for rest in comps(total - head, parts - 1):
                yield (head,) + rest

    def rec(ci, used, ell, ways):
        if ci == len(classes):
            table[used][ell] += ways
            return
        d, a_d = classes[ci]
        rec(ci + 1, used, ell, ways)
        max_total = (n_max - used) // d
        for j in range(1, min(a_d, max_total) + 1):
            choose = comb(a_d, j)
            for t in range(j, max_total + 1):
                for _ in comps(t, j):
                    rec(ci + 1, used + d * t, ell + d * j, ways * choose)

    rec(0, 0, 0, 1)
    return table


# ---------------------------------------------------------------------------
# Per-candidate singular-point classification: for each form f, evaluate f
# and its partials at every closed point with MPoly.evaluate_codes, and
# compare ranks of X's Jacobian with and without grad f by a naive
# elimination over the residue field.  No jet conditions, no candidate
# indices, no kernels.

def singular_at(X, f, P):
    """Whether X cap H_f is singular at the closed point P of X: f(P) = 0
    and grad f(P) lies in the span of the gradients of X's equations."""
    ext, rep = P.residue, P.representative
    if f.evaluate_codes(rep, ext):
        return False
    jac = [[g.partial(j).evaluate_codes(rep, ext) for j in range(X.nvars)]
           for g in X.equations]
    grad = [f.partial(j).evaluate_codes(rep, ext) for j in range(X.nvars)]
    return _rank_over(ext, jac + [grad]) == _rank_over(ext, jac)


def ell_oracle(X, f, points):
    """Total degree of the listed points at which X cap H_f is singular."""
    return sum(P.degree for P in points if singular_at(X, f, P))


def ell_histogram_oracle(X, forms, points):
    """{ell: count} over the forms, ell = 0 included; the zero form is
    counted under -1."""
    hist = {}
    for f in forms:
        ell = ell_oracle(X, f, points) if f else -1
        hist[ell] = hist.get(ell, 0) + 1
    return hist


def _rank_over(ext, rows):
    """Rank of a list of code rows over the field ext, by elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ext.inv(rows[rank][c])
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = ext.neg(ext.mul(rows[i][c], inv))
                rows[i] = [ext.add(x, ext.mul(f, y))
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Matrix groups by brute force: the closure of a set of matrices under
# multiplication, and orbit minima of F_2 candidate indices over every
# invertible matrix, with a substitution of their own.

def matrix_closure_size(spec, gens):
    """The order of the group the n x n code matrices generate: breadth-first
    closure under right multiplication, with numpy product and sum tables;
    a matrix is recorded by its base-q code."""
    q = spec.q
    mul = np.array([[spec.mul(a, b) for b in range(q)] for a in range(q)])
    add = np.array([[spec.add(a, b) for b in range(q)] for a in range(q)])
    n = len(gens[0])
    weights = q ** np.arange(n * n, dtype=np.int64)
    seen = np.zeros(q ** (n * n), dtype=bool)
    frontier = np.eye(n, dtype=np.int64)[None]
    seen[frontier.reshape(1, -1) @ weights] = True
    while len(frontier):
        found = []
        for g in gens:
            g = np.array(g, dtype=np.int64)
            prod = np.zeros_like(frontier)
            for col in range(n):
                prod = add[prod, mul[frontier[:, :, col, None], g[col]]]
            codes, first = np.unique(prod.reshape(len(prod), -1) @ weights,
                                     return_index=True)
            fresh = ~seen[codes]
            seen[codes[fresh]] = True
            found.append(prod[first[fresh]])
        frontier = np.concatenate(found)
    return int(seen.sum())


def invertible_matrices_f2(n):
    """Every n x n matrix over F_2 of full rank, as a tuple of rows."""
    out = []
    for entries in product((0, 1), repeat=n * n):
        rows = [entries[i * n:(i + 1) * n] for i in range(n)]
        if dense_rank_mod_p(rows, 2) == n:
            out.append(tuple(rows))
    return out


def substitute_monomial(expo, matrix, p):
    """{exponent: coefficient mod p} of the monomial x^expo after the
    substitution x_i -> sum_j matrix[i][j] x_j, expanded factor by factor."""
    n = len(expo)
    terms = {(0,) * n: 1}
    for i, e in enumerate(expo):
        for _ in range(e):
            out = {}
            for t, c in terms.items():
                for j, a in enumerate(matrix[i]):
                    if a:
                        key = t[:j] + (t[j] + 1,) + t[j + 1:]
                        out[key] = (out.get(key, 0) + c * a) % p
            terms = {t: c for t, c in out.items() if c}
    return terms


def orbit_minima_f2(nvars, d, indices):
    """For each F_2 candidate index of S_d (bit t = coefficient of the t-th
    degree-d monomial), the least index of f(Ax) over every invertible A."""
    monos = monomials_of_degree(nvars, d)
    position = {m: t for t, m in enumerate(monos)}
    indices = np.asarray(indices, dtype=np.int64)
    best = indices.copy()
    for matrix in invertible_matrices_f2(nvars):
        image = np.zeros_like(indices)
        for t, m in enumerate(monos):
            col = sum(1 << position[e]
                      for e in substitute_monomial(m, matrix, 2))
            image ^= ((indices >> t) & 1) * col
        best = np.minimum(best, image)
    return best


# ---------------------------------------------------------------------------
# The former orbit route of exact scans of P^n with Z empty.  A linear
# change of coordinates f -> f(Ax) maps closed points to closed points of the
# same degree and V(f, grad f) to its image, so it preserves ell(f) and the
# certificate's answer: one certificate per GL_{n+1}(F_q)-orbit of
# scan-clean forms decides them all.  The library scans on to proven degree
# bounds instead (`sieve._degree_bound`); this route is what they are
# checked against.

def substitute(poly, matrix):
    """poly(Ax) for A a matrix of codes (x_i -> sum_j A[i][j] x_j), by MPoly
    products, factor by factor."""
    spec, nvars = poly.spec, poly.nvars
    forms = [MPoly(spec, nvars, {
        tuple(int(t == j) for t in range(nvars)): c
        for j, c in enumerate(row)}) for row in matrix]
    out = MPoly.zero(spec, nvars)
    for expo, c in poly.terms.items():
        image = MPoly.constant(spec, nvars, c)
        for form, e in zip(forms, expo):
            for _ in range(e):
                image = image * form
        out = out + image
    return out


def gl_generators(spec, nvars):
    """Matrices A (x_i -> sum_j A[i][j] x_j, rows of codes) generating
    GL_nvars(F_q): the swap x_0 <-> x_1, the cycle x_i -> x_{i+1}, the
    transvection x_0 -> x_0 + x_1 and, for q > 2, the scaling x_0 -> w x_0
    by a generator w of F_q^*."""
    eye = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    gens = []
    if nvars > 1:
        gens.append([eye[1], eye[0]] + eye[2:])
        gens.append([eye[(i + 1) % nvars] for i in range(nvars)])
        gens.append([eye[0][:1] + (1,) + eye[0][2:]] + eye[1:])
    if spec.q > 2:
        gens.append([(spec.primitive,) + eye[0][1:]] + eye[1:])
    return tuple(tuple(g) for g in gens)


ORBIT_ENTRIES = 1 << 14  # image digits per chunk in `orbit_labels`


@lru_cache(maxsize=16)
def gl_action(spec, nvars, d):
    """The F_p-linear maps f -> f(Ax) on the base-p digits of the indices
    of S_d, one block of columns per generator A: the digits of an index
    times this matrix are the digits of its images, generator by
    generator."""
    monos = monomials_of_degree(nvars, d)
    index = monomial_index(nvars, d)
    k = spec.k
    scalars = [spec.from_digits([0] * j + [1]) for j in range(k)]
    blocks = [np.zeros((len(monos) * k, 0), dtype=np.int64)]  # F_2, P^0: none
    for A in gl_generators(spec, nvars):
        rows = []  # the image of each candidate digit, as digits
        for m in monos:
            for s in scalars:
                row = [0] * (len(monos) * k)
                image = substitute(MPoly(spec, nvars, {m: s}), A)
                for expo, c in image.terms.items():
                    row[index[expo] * k:(index[expo] + 1) * k] = spec.digits(c)
                rows.append(row)
        blocks.append(np.array(rows, dtype=np.int64))
    return np.concatenate(blocks, axis=1)


def orbit_labels(space, clean):
    """For each position in `clean` (the sorted scan-clean indices of an
    exhaustive scan of P^n, a GL-stable set), the least position of its
    GL_{n+1}(F_q)-orbit: label = min(label, label[image]) over the
    generators' images, with pointer jumping, until nothing changes."""
    spec = space.problem.field
    action = gl_action(spec, space.problem.nvars, space.d)
    width = len(action)  # digits per index
    weights = spec.p ** np.arange(width, dtype=np.int64)
    images = np.empty((action.shape[1] // width, len(clean)), dtype=np.intp)
    step = max(1, ORBIT_ENTRIES // max(action.shape[1], 1))
    for lo in range(0, len(clean), step):
        chunk = clean[lo:lo + step]
        digits = chunk[:, None] // weights % spec.p @ action % spec.p
        moved = (digits.reshape(len(chunk), -1, width) @ weights).T
        images[:, lo:lo + step] = np.searchsorted(clean, moved)
        if not np.array_equal(clean.take(images[:, lo:lo + step],
                                         mode="clip"), moved):
            raise AssertionError("the scan-clean set is not GL-stable")
    label = np.arange(len(clean))
    while True:
        new = label
        for image in images:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def orbit_groups(space, clean):
    """(representatives, sizes): the GL_{n+1}(F_q)-orbits of the scan-clean
    indices, each as its least index and its size."""
    roots, sizes = np.unique(orbit_labels(space, clean), return_counts=True)
    return clean[roots], sizes


def scan_clean(problem, d, bound):
    """(candidate space, sorted scan-clean indices) of an exhaustive scan."""
    space = sieve.candidate_space(problem, d)
    groups = variety.closed_point_arrays(problem.X, bound)
    ell = sieve._scan_all(space, sieve._conditions(problem.X, space, groups))
    ell[0] = sieve._INFINITE
    return space, np.flatnonzero(ell == 0)


def _exact_result(problem, d, bound, clean, smooth):
    """The exact ScanResult of an exhaustive scan at B whose scan-clean
    candidates number `clean`, `smooth` of them smooth."""
    bounded = sieve._run_scan(problem, d, ("exhaustive",), bound, False, 0,
                              sieve.DEFAULT_CAP)
    flags = bounded.flags[:-1] + ("exact-certificates",)
    return sieve.ScanResult(d, bounded.count_total, bounded.ell_counts,
                            smooth, clean - smooth, flags)


def orbit_scan(problem, d, bound):
    """The exact ScanResult of an exhaustive scan of P^n with Z empty by the
    orbit route: `sieve._certify_smooth` on the least form of each orbit of
    scan-clean forms, weighted by the orbit's size."""
    space, clean = scan_clean(problem, d, bound)
    reps, sizes = orbit_groups(space, clean)
    certified = sieve._certify_smooth(problem, d,
                                      index_digits(space, reps.tolist()))
    return _exact_result(problem, d, bound, len(clean),
                         int(sizes[certified].sum()))


def per_candidate_scan(problem, d, bound):
    """The exact ScanResult of an exhaustive scan with one certificate per
    scan-clean candidate, by `certify_per_candidate`."""
    _, clean = scan_clean(problem, d, bound)
    return _exact_result(problem, d, bound, len(clean), int(
        certify_per_candidate(problem, d, clean.tolist()).sum()))


# ---------------------------------------------------------------------------
# The former library smoothness certificate: search P^n(F_{q^e}), e <= e_max,
# for a common zero of J = (X's equations, f, the maximal minors of their
# Jacobian), then look for a degree k with J_k = S_k up to the graded
# ideal's default cap.  Its two answers are independent of each other:
# a witness point, or a filled graded piece.

def point_search_certificate(problem, f, e_max=3):
    """'nonempty' (X cap H_f has a singular point over some F_{q^e}),
    'empty' (J_k = S_k for some k up to the cap) or 'inconclusive'."""
    spec, nvars = problem.field, problem.nvars
    gens = sieve._jacobian_ideal_polys(list(problem.X.equations) + [f], spec,
                                       nvars)
    if find_point(variety.SchemePresentation(spec, nvars, tuple(gens)),
                  e_max) is not None:
        return "nonempty"
    ideal = GradedIdeal(spec, nvars, gens)
    return ideal.is_projectively_empty().status


# ---------------------------------------------------------------------------
# The former low-degree predictor: one Euler factor per closed point of V at
# its embedding dimension, and one power per degree of the closed points of
# X - V, enumerated from a presentation of their own.

def complement_presentation(problem):
    """X - V as a quasi-projective presentation."""
    X = problem.X
    if problem.Z is None:
        return X
    v_eqs = problem.Z.equations
    if not v_eqs:
        # Z is all of P^n, so X - V is empty: 1 vanishes at no point
        return variety.SchemePresentation(
            problem.field, problem.nvars,
            X.equations + (MPoly.constant(problem.field, problem.nvars, 1),),
            X.removed, X.declared_dim)
    if X.removed:
        removed = tuple(w * v for w in X.removed for v in v_eqs)
    else:
        removed = tuple(v_eqs)
    return variety.SchemePresentation(problem.field, problem.nvars,
                                      X.equations, removed, X.declared_dim)


def low_degree_predictor(problem, r, cap=sieve.DEFAULT_CAP):
    """The density of sections smooth at every closed point of degree < r."""
    m = sieve._require_dim(problem)
    q = problem.field.q
    value = Fraction(1)
    if r <= 1:
        return value
    V = sieve.intersection_presentation(problem)
    if V is not None:
        for P in variety.enumerate_closed_points(V, r - 1, cap):
            s = m - variety.embedding_dimension(V, P)
            if s <= 0:
                return Fraction(0)
            value *= 1 - Fraction(1, q ** (s * P.degree))
    xmv = complement_presentation(problem)
    for e, _, orbits in variety.closed_point_arrays(xmv, r - 1, cap):
        value *= (1 - Fraction(1, q ** ((m + 1) * e))) ** len(orbits)
    return value


# ---------------------------------------------------------------------------
# The former embedder loop: one draw at a time, each decided by
# `sieve._empty_on_open`, whose point search scans P^n(F_{q^e}), e <= e_max,
# for a common zero of J before the graded test.

def embed_per_draw(problem, target_dim, d_max, seed=0, d_min=1,
                   precheck_degree=3, try_factor=20, e_max=2,
                   cap=sieve.DEFAULT_CAP):
    """`sieve.embed_curve` with one `_empty_on_open(J, removed, e_max)` per
    nonzero, unrepeated draw."""
    if problem.Z is None:
        raise sieve.MissingProfile("embedding needs the curve presented as Z")
    C = sieve.intersection_presentation(problem)
    n = problem.nvars - 1
    for P in variety.enumerate_closed_points(C, precheck_degree, cap):
        e_p = variety.embedding_dimension(C, P)
        if e_p > target_dim:
            return sieve.EmbedResult("obstructed", witness=P, witness_e=e_p)
    if n <= target_dim:
        return sieve.EmbedResult("success")
    rng = random.Random(seed)
    spec = problem.field
    steps, tries_log, flags = [], [], []
    cur = problem
    for step_index in range(n - target_dim):
        m_cur = sieve._require_dim(cur)
        density = None
        try:
            rep = sieve.predict_density(cur, cap=cap)
            if isinstance(rep.value, Fraction) and rep.value > 0:
                density = rep.value
        except (sieve.MissingProfile, zeta.InsufficientProfile,
                variety.EnumerationCapExceeded):
            flags.append("no-density-prediction")
        budget_per_degree = (int(try_factor / density) + 1) if density else 200
        found = None
        for d in range(d_min, d_max + 1):
            space = sieve.candidate_space(cur, d)
            if space.rank == 0:
                tries_log.append((step_index, d, 0))
                continue
            tries = 0
            budget = min(budget_per_degree, spec.q ** space.rank)
            seen = set()
            while tries < budget:
                cand = sieve._index_of(
                    sieve._draws(rng, spec.q, space.rank, 1)[0], spec.p)
                tries += 1
                if not cand or cand in seen:
                    continue
                seen.add(cand)
                f = space.poly_of(cand)
                if not f:
                    continue
                gens = sieve._jacobian_ideal_polys(
                    list(cur.X.equations) + [f], spec, problem.nvars)
                J = GradedIdeal(spec, problem.nvars, gens)
                cert = sieve._empty_on_open(J, cur.X.removed, e_max=e_max)
                if cert.status == "empty":
                    found = sieve.EmbedStep(d, f, cert, tries)
                    break
            tries_log.append((step_index, d, tries))
            if found:
                break
        if not found:
            raise sieve.NoSmoothHypersurfaceFound(d_max, tuple(tries_log))
        steps.append(found)
        new_x = variety.SchemePresentation(spec, problem.nvars,
                                           cur.X.equations + (found.poly,),
                                           cur.X.removed, m_cur - 1)
        cur = variety.SchemeProblem(spec, problem.nvars, problem.aliases,
                                    new_x, problem.Z, problem.stratum_dims)
    return sieve.EmbedResult("success", tuple(steps),
                             tries_per_degree=tuple(tries_log),
                             flags=tuple(dict.fromkeys(flags)))


# ---------------------------------------------------------------------------
# The former rank certificate, one candidate at a time: the rows of J_t from
# `certificate_rows` as an np.bincount image of the candidate's coefficient
# digits, decoded to linalg rows over F_q and tested by `fills`, with no
# expansion to F_p and no lift folded into the map.  `certificate_rows` is
# the former row build of `sieve._certificate_rows`: one `MPoly` product and
# one `linalg.reduce` against X's block per multiple of each generator.

def certificate_rows(problem, d):
    """codes[m * k + j, row, column], the rows of J_t for f = x^j m reduced
    modulo the multiples of X's equations and read on the block's non-pivot
    columns (see `sieve._certificate_rows`)."""
    spec, nvars = problem.field, problem.nvars
    eqs = [g for g in problem.X.equations if g]
    r = len(eqs)
    jac = [[g.partial(j) for j in range(nvars)] for g in eqs]
    # a slot is a generator sum(cofactor * (f if j is None else df/dx_j))
    slots = []
    if eqs or d % spec.p == 0:
        slots.append((d, [(MPoly.constant(spec, nvars, 1), None)]))
    minor_degree = sum(g.homogeneous_degree() - 1 for g in eqs) + d - 1
    for cols in combinations(range(nvars), r + 1):
        cofactors = []
        for i, c in enumerate(cols):
            cof = sieve._det([[row[b] for b in cols if b != c] for row in jac],
                             spec, nvars)
            cofactors.append((-cof if (r + i) % 2 else cof, c))
        slots.append((minor_degree, cofactors))
    degrees = sorted([g.homogeneous_degree() for g in eqs]
                     + [deg for deg, _ in slots], reverse=True)
    t = max(0, sum(e - 1 for e in degrees[:nvars]) + 1)
    index = monomial_index(nvars, t)

    def multiples(g, deg):
        """The multiples mu * g in S_t, as linalg rows."""
        return [linalg.row(spec, len(index), (
            (index[tuple(a + b for a, b in zip(e, mu))], c)
            for e, c in g.terms.items()))
            for mu in monomials_of_degree(nvars, t - deg)]

    fixed = linalg.echelon(spec, [row for g in eqs
                                  if g.homogeneous_degree() <= t
                                  for row in multiples(
                                      g, g.homogeneous_degree())])
    pivots = {linalg.entries(spec, row)[0][0] for row in fixed}
    free = [c for c in range(len(index)) if c not in pivots]
    codes = []
    for m in monomials_of_degree(nvars, d):
        for j in range(spec.k):
            f = MPoly(spec, nvars, {m: spec.from_digits([0] * j + [1])})
            rows = [linalg.reduce(spec, row, fixed)
                    for deg, cofactors in slots if deg <= t
                    for row in multiples(sum(
                        (cof * (f if c is None else f.partial(c))
                         for cof, c in cofactors), MPoly.zero(spec, nvars)),
                        deg)]
            codes.append(np.array([[dict(linalg.entries(spec, row)).get(c, 0)
                                    for c in free] for row in rows],
                                  dtype=np.min_scalar_type(spec.q)))
    return np.array(codes)


def certify_per_candidate(problem, d, indices):
    """For each candidate index of I_d, whether J_t = S_t (see
    `sieve._certify_smooth`), by one rank over F_q per candidate."""
    spec = problem.field
    p, k = spec.p, spec.k
    out = np.zeros(len(indices), dtype=bool)
    codes = certificate_rows(problem, d)
    _, nrows, ncols = codes.shape
    digit_table = np.array([spec.digits(a) for a in range(spec.q)])
    flat = digit_table[codes].reshape(len(codes), -1)
    source, position = np.nonzero(flat)
    value = flat[source, position].astype(np.float64)
    space = sieve.candidate_space(problem, d)
    lift = sieve._lift(space)
    for i, index in enumerate(indices):
        digits = np.array([index // p ** t % p
                           for t in range(k * space.rank)], dtype=np.int64)
        if lift is not None:
            digits = lift @ digits % p
        image = np.bincount(position, digits[source] * value,
                            minlength=flat.shape[1]) % p
        rows = _code_rows(spec, image.reshape(nrows, ncols, k))
        out[i] = fills(spec, rows, ncols)
    return out


def _code_rows(spec, digits):
    """The linalg rows whose F_p-digits are `digits`, an array of shape
    (rows, columns, k)."""
    if spec.q == 2:
        packed = np.packbits(digits[:, :, 0].astype(np.uint8), axis=1,
                             bitorder="little")
        w = packed.shape[1]
        buf = packed.tobytes()
        return [int.from_bytes(buf[i * w:(i + 1) * w], "little")
                for i in range(len(packed))]
    codes = (digits @ spec.p ** np.arange(spec.k)).astype(np.int64)
    return list(map(tuple, codes.tolist()))


def fills(spec, rows, ncols):
    """Whether linalg rows over F_q span all ncols columns, reading no more
    of the rows (any iterable) than it needs.  Over F_2 each row is reduced
    on its highest set bit, otherwise on its lowest nonzero code."""
    pivots = {}
    rows = iter(rows)
    while len(pivots) < ncols:
        r = next(rows, None)
        if r is None:
            return False
        if spec.q == 2:
            while r and r.bit_length() - 1 in pivots:
                r ^= pivots[r.bit_length() - 1]
            if r:
                pivots[r.bit_length() - 1] = r
            continue
        while any(r):
            c = next(j for j, x in enumerate(r) if x)
            if c not in pivots:
                inv = spec.inv(r[c])
                pivots[c] = [spec.mul(inv, x) for x in r]
                break
            f = spec.neg(r[c])
            r = [spec.add(x, spec.mul(f, y)) for x, y in zip(r, pivots[c])]
    return True


# ---------------------------------------------------------------------------
# Closed-form counts of smooth cubic forms, published point counts of moduli
# stacks times |GL_{n+1}(F_q)|.  Since |GL_{n+1}(F_q)| =
# q^{(n+1)^2} prod_{i <= n+1} (1 - q^-i), both make the exact density at
# d = 3 equal Poonen's limit 1 / zeta_{P^n}(n + 1).

def gl_order(n, q):
    """|GL_n(F_q)| = prod_{i < n} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def smooth_plane_cubics(q):
    """Smooth ternary cubic forms over F_q: q |GL_3(F_q)|."""
    return q * gl_order(3, q)


def smooth_binary_forms(q, d):
    """Smooth binary forms of degree d >= 3 over F_q, the squarefree ones:
    (q - 1)(q^d - q^(d-2)).  Each is c g(x, y) with g(x, 1) monic and
    squarefree of degree d or d - 1 (a simple root at infinity), and monic
    squarefree polynomials of degree m >= 2 number q^m - q^(m-1) (Rosen,
    "Number Theory in Function Fields", Prop. 2.3)."""
    return (q - 1) * (q ** d - q ** (d - 2))


def smooth_cubic_surfaces(q):
    """Smooth quaternary cubic forms over F_q: q^4 |GL_4(F_q)| (Das,
    "Arithmetic statistics on cubic surfaces", 2020)."""
    return q ** 4 * gl_order(4, q)


def smooth_quadric_surfaces(q):
    """Quaternary quadratic forms over F_q with a smooth quadric surface:
    q^6 (q - 1)(q^3 - 1) = |GL_4(F_q)|/|O^+_4(F_q)| + |GL_4(F_q)|/|O^-_4(F_q)|
    (Taylor, "The Geometry of the Classical Groups", 1992)."""
    return q ** 6 * (q - 1) * (q ** 3 - 1)


def smooth_plane_quartics(q):
    """Smooth ternary quartic forms over F_q: (q^6 + 1) |GL_3(F_q)|
    (Bergström, "Cohomology of moduli spaces of curves of genus three via
    point counts", 2008)."""
    return (q ** 6 + 1) * gl_order(3, q)


# ---------------------------------------------------------------------------
# Non-reduced plane curves.  Plane curves of all degrees form the free
# commutative monoid on the irreducible ones, so with
# C(t) = sum_d (q^{C(d+2,2)} - 1)/(q - 1) t^d counting curves, the squarefree
# curves have generating function C(t) / C(t^2).

def nonreduced_plane_forms(q, d):
    """Nonzero ternary forms of degree d over F_q with a repeated factor."""
    forms = [q ** comb(e + 2, 2) - 1 for e in range(d + 1)]
    curves = [n // (q - 1) for n in forms]
    squarefree = []  # S(t) C(t^2) = C(t), and C(t^2) has constant term 1
    for e in range(d + 1):
        squarefree.append(curves[e] - sum(curves[j] * squarefree[e - 2 * j]
                                          for j in range(1, e // 2 + 1)))
    return forms[d] - (q - 1) * squarefree[d]


# ---------------------------------------------------------------------------
# Helpers that only the tests use: field elements in code order, the
# Jacobian criterion at a closed point and at each member of its orbit,
# the scheme-file writer, and the symmetric-power tables of a profile.


def enumerate_field(spec):
    """All q^k elements in deterministic (code) order."""
    if spec.q > gf.ENUMERATION_CAP:
        raise gf.EnumerationCapError(
            f"|F| = {spec.q} exceeds the enumeration cap {gf.ENUMERATION_CAP}")
    return [gf.FieldElement(spec, c) for c in range(spec.q)]


def is_smooth_at(X, f, point, expected_dim, chart=None):
    """Jacobian criterion at P: rank must equal n - expected_dim."""
    eqs = list(X.equations)
    if f is not None:
        eqs.append(f)
    variety._require_on_scheme(eqs, X.removed, point)
    rank = variety._jacobian_rank_at(eqs, point, chart)
    return rank == X.ambient_dim - expected_dim


def orbit_variants(point):
    """The same closed point presented at each of its orbit members."""
    return [replace(point, representative=member) for member in point.orbit]


def dump_problem(problem):
    """The problem in the scheme-file format `variety.parse_problem` reads."""
    lines = []
    fs = problem.field
    if fs.k == 1:
        lines.append(f"q = {fs.p}")
    else:
        lines.append(f"q = {fs.p}^{fs.k} [{fs.modulus_string('g')}]")
    lines.append(f"P {problem.nvars - 1} : " + " ".join(problem.aliases))
    lines.append("X:")
    for e in problem.X.equations:
        lines.append("  " + e.to_string(problem.aliases))
    if problem.X.removed:
        lines.append("X.remove:")
        for e in problem.X.removed:
            lines.append("  " + e.to_string(problem.aliases))
    if problem.Z is not None:
        lines.append("Z:")
        for e in problem.Z.equations:
            lines.append("  " + e.to_string(problem.aliases))
    if problem.X.declared_dim is not None:
        lines.append(f"dim X = {problem.X.declared_dim}")
    for e, d in problem.stratum_dims:
        lines.append(f"dim V_{e} = {d}")
    return "\n".join(lines) + "\n"


def point_count(profile, e):
    """N_e = |X(F_{q^e})| of a count profile."""
    if profile.poly is not None:
        return profile.poly_counts(e)[-1]
    if e > profile.b_max:
        raise zeta.InsufficientProfile(
            f"N_{e} needs counts through degree {e}, have {profile.b_max}")
    return variety.point_counts(profile.a)[e - 1]


def sym_coefficients(profile, n_max, ell_max):
    """Table t[n][ell] = number of effective zero-cycles of degree n
    supported on exactly ell geometric points (ell capped at ell_max;
    larger supports are accumulated in t[n][ell_max + 1]).

    Row sums recover the plain symmetric-power counts, computed
    independently from the Euler-product expansion and asserted equal by
    the caller's tests, not here.
    """
    if not profile.exact_through(n_max):
        raise zeta.InsufficientProfile(
            f"need exact counts through degree {n_max}, have {profile.b_max}")
    width = ell_max + 2
    table = [[0] * width for _ in range(n_max + 1)]
    table[0][0] = 1
    for d in range(1, n_max + 1):
        a_d = profile.a_d(d)
        if a_d == 0:
            continue
        new = [row[:] for row in table]
        # choose j distinct degree-d points with total multiplicity t >= j
        for j in range(1, n_max // d + 1):
            if j > a_d:
                break
            ways_pts = comb(a_d, j)
            for t in range(j, n_max // d + 1):
                ways = ways_pts * comb(t - 1, j - 1)
                dn, dell = d * t, d * j
                for n0 in range(0, n_max - dn + 1):
                    for e0 in range(width):
                        v = table[n0][e0]
                        if v:
                            e1 = min(e0 + dell, ell_max + 1)
                            new[n0 + dn][e1] += v * ways
        table = new
    return table


def sym_total(profile, n_max):
    """|Sym^n X(F_q)| for n <= n_max, from the Euler product expansion."""
    if not profile.exact_through(n_max):
        raise zeta.InsufficientProfile(
            f"need exact counts through degree {n_max}, have {profile.b_max}")
    series = [0] * (n_max + 1)
    series[0] = 1
    for d in range(1, n_max + 1):
        a_d = profile.a_d(d)
        for _ in range(a_d):
            # multiply by 1/(1 - t^d)
            for n in range(d, n_max + 1):
                series[n] += series[n - d]
    return series
