"""Executable forms of the zeta-product density results: exact
predictors for smooth hypersurface sections through a subscheme, the
singularity-count distribution, empirical estimators over F_q, and the
constructive curve embedder.

The estimators share one scan engine for every q = p^k: the conditions for
a section to be singular at a closed point P are F_p-linear in the
candidate's F_p-coordinates.  The conditions of all closed points of a
scan are one stack, sorted by degree and padded with zero rows, built a
degree at a time from the representatives' code array.  Exhaustive scans
bring each block of the stack to echelon form in one batched elimination
mod p and enumerate the F_p-kernels together as index arrays; sampled
scans evaluate the functionals in numpy batches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import gf, linalg, variety, zeta
from .graded import EmptinessCertificate, GradedIdeal
from .mpoly import MPoly, monomials_of_degree
from .variety import (ClosedPoint, SchemePresentation, SchemeProblem,
                      closed_point_arrays, enumerate_closed_points, stratify)

DEFAULT_CAP = variety.DEFAULT_CAP


class MissingProfile(gf.SmoothsieveError):
    """A required exact count profile could not be established."""


class UnsupportedPresentation(gf.SmoothsieveError):
    """exact mode needs X = P^n or a complete intersection presentation,
    with nothing removed."""


class NoSmoothHypersurfaceFound(RuntimeError):
    def __init__(self, d_max, tries):
        super().__init__(f"no smooth hypersurface found through degree {d_max}")
        self.d_max = d_max
        self.tries = tries


# ---------------------------------------------------------------------------
# Reports.

@dataclass(frozen=True)
class HypothesisCheck:
    status: str                  # 'satisfied' | 'violated' | 'unknown'
    e: int | None = None
    dim: int | None = None
    provenance: str | None = None  # 'declared' | 'heuristic' | 'mixed'

    def to_json_dict(self):
        out = {"status": self.status}
        if self.e is not None:
            out["e"] = self.e
            out["dim"] = self.dim
        if self.provenance:
            out["provenance"] = self.provenance
        return out


@dataclass(frozen=True)
class ZetaFactor:
    part: str
    s: int
    value: Fraction

    def to_json_dict(self):
        return {"part": self.part, "s": self.s, "zeta": str(self.value),
                "approx": float(self.value)}


@dataclass(frozen=True)
class EstimateValue:
    count_smooth: int
    count_total: int
    confidence_note: str | None = None

    @property
    def fraction(self):
        return Fraction(self.count_smooth, self.count_total)

    def to_json_dict(self):
        out = {"count_smooth": self.count_smooth,
               "count_total": self.count_total,
               "fraction": str(self.fraction),
               "approx": float(self.fraction)}
        if self.confidence_note:
            out["confidence_note"] = self.confidence_note
        return out


@dataclass(frozen=True)
class DensityReport:
    mode: str                    # 'predicted' | 'estimated'
    value: Fraction | EstimateValue
    hypothesis_check: HypothesisCheck
    factors: tuple = ()
    per_degree: tuple = ()       # ((d, EstimateValue), ...)
    flags: tuple = ()

    def to_json_dict(self):
        out = {"mode": self.mode}
        if isinstance(self.value, Fraction):
            out["value"] = str(self.value)
            out["approx"] = float(self.value)
        else:
            out["value"] = self.value.to_json_dict()
        out["hypothesis_check"] = self.hypothesis_check.to_json_dict()
        if self.factors:
            out["factors"] = [f.to_json_dict() for f in self.factors]
        if self.per_degree:
            out["per_degree"] = {str(d): v.to_json_dict()
                                 for d, v in self.per_degree}
        out["flags"] = list(self.flags)
        return out


@dataclass(frozen=True)
class SingDistReport:
    mode: str
    entries: tuple               # ((ell, Fraction | EstimateValue), ...)
    residual: Fraction | None
    per_degree: tuple = ()       # ((d, ((label, count, Fraction), ...)), ...)
    flags: tuple = ()

    def to_json_dict(self):
        out = {"mode": self.mode, "entries": {}}
        for ell, v in self.entries:
            key = str(ell)
            if isinstance(v, Fraction):
                out["entries"][key] = {"value": str(v), "approx": float(v)}
            else:
                out["entries"][key] = v.to_json_dict()
        if self.residual is not None:
            out["residual"] = str(self.residual)
            out["residual_approx"] = float(self.residual)
        if self.per_degree:
            out["per_degree"] = {
                str(d): {label: {"count": c, "fraction": str(fr),
                                 "approx": float(fr)}
                         for label, c, fr in hist}
                for d, hist in self.per_degree}
        out["flags"] = list(self.flags)
        return out


# ---------------------------------------------------------------------------
# Presentations derived from a problem.

def intersection_presentation(problem: SchemeProblem) -> SchemePresentation | None:
    """V = X cap Z (None when Z is absent, i.e. the empty subscheme)."""
    if problem.Z is None:
        return None
    return SchemePresentation(problem.field, problem.nvars,
                              problem.X.equations + problem.Z.equations,
                              problem.X.removed)


def _require_dim(problem) -> int:
    m = problem.X.dim()
    if m is None:
        raise MissingProfile("dim X must be declared for this operation")
    return m


# ---------------------------------------------------------------------------
# Exact predictors.

def predict_density(problem: SchemeProblem, b: int | None = None,
                    cap: int = DEFAULT_CAP) -> DensityReport:
    """The limiting fraction of degree-d forms through Z whose section of X
    stays smooth, as an exact rational assembled from zeta special values;
    exactly 0 when some stratum has dim V_e + e >= dim X."""
    m = _require_dim(problem)
    V = intersection_presentation(problem)
    flags = []
    if V is not None:
        if b is None:
            declared = list(problem.dims.values())
            b = max([m] + declared) + 2
        table = stratify(V, b, problem.dims, cap)
        flags.extend(table.flags)
        if not table.nonempty_values() and V.equations:
            ideal = GradedIdeal(problem.field, problem.nvars, V.equations)
            if ideal.is_projectively_empty().status != "empty":
                flags.append("no-low-degree-points")
        check = _hypothesis(table, m)
        if check.status == "violated":
            return DensityReport("predicted", Fraction(0), check, (),
                                 flags=tuple(flags))
        factors = []
        prof = zeta.profile_from_counts(
            _complement_counts(problem, table, b, cap), problem.field.q, m, b)
        if prof.poly is None:
            raise MissingProfile("no exact polynomial profile for X - V")
        factors.append(ZetaFactor("X-V", m + 1, zeta.zeta_value(prof, m + 1).exact))
        for e in table.nonempty_values():
            stratum = table.strata[e]
            sprof = zeta.profile_from_counts(stratum.counts, problem.field.q,
                                             stratum.dim_estimate, b)
            if sprof.poly is None:
                raise MissingProfile(f"no exact polynomial profile for V_{e}")
            factors.append(ZetaFactor(f"V_{e}", m - e,
                                      zeta.zeta_value(sprof, m - e).exact))
        value = Fraction(1)
        for f in factors:
            value /= f.value
        return DensityReport("predicted", value, check, tuple(factors),
                             flags=tuple(flags))
    # Z empty: 1 / zeta_X(m+1)
    if b is None:
        b = m + 2
    prof = zeta.profile_from_scheme(problem.X, b, cap)
    if prof.poly is None:
        raise MissingProfile("no exact polynomial profile for X")
    zv = zeta.zeta_value(prof, m + 1).exact
    return DensityReport("predicted", 1 / zv,
                         HypothesisCheck("satisfied", provenance="declared"),
                         (ZetaFactor("X", m + 1, zv),), flags=tuple(flags))


def _complement_counts(problem, table, b, cap):
    """{d: a_d(X - V)} for d <= b from the stratification of V:
    a_d(X - V) = a_d(X) - sum_e a_d(V_e), with a_d(X) in closed form for
    X = P^n and from X's own point counts otherwise."""
    a_x = zeta.profile_from_scheme(problem.X, b, cap).a
    return {d: a - sum(s.counts.get(d, 0) for s in table.strata.values())
            for d, a in enumerate(a_x, 1)}


def _hypothesis(table, m) -> HypothesisCheck:
    sources = set()
    for e in table.nonempty_values():
        s = table.strata[e]
        sources.add(s.dim_source)
        if s.dim_estimate is not None and s.dim_estimate + e >= m:
            return HypothesisCheck("violated", e, s.dim_estimate, s.dim_source)
    prov = "declared" if sources <= {"declared"} else (
        "heuristic" if sources == {"heuristic"} else "mixed")
    return HypothesisCheck("satisfied", provenance=prov)


def predict_sing_dist(problem: SchemeProblem, ell_max: int,
                      b: int | None = None, cap: int = DEFAULT_CAP) -> SingDistReport:
    """Exact distribution of the number of singular geometric points of a
    random hypersurface section of X, entries ell = 0..ell_max."""
    m = _require_dim(problem)
    if b is None:
        b = max(ell_max, m + 2)
    prof = zeta.profile_from_scheme(problem.X, b, cap)
    if prof.poly is None:
        raise MissingProfile("no exact polynomial profile for X")
    denom = zeta.zeta_value(prof, m + 1).exact
    entries = []
    total = Fraction(0)
    for ell in range(ell_max + 1):
        v = zeta.zeta_ell(prof, ell, m + 1).exact / denom
        entries.append((ell, v))
        total += v
    return SingDistReport("predicted", tuple(entries), 1 - total)


def low_degree_predictor(problem: SchemeProblem, r: int,
                         cap: int = DEFAULT_CAP) -> Fraction:
    """Exact density of sections smooth at every point of degree < r: the
    finite product of the per-point Euler factors, one power per degree of
    each stratum V_e and of X - V."""
    m = _require_dim(problem)
    q = problem.field.q
    value = Fraction(1)
    if r <= 1:
        return value
    variety.check_enumeration_cap(problem.X, range(1, r), cap)
    V = intersection_presentation(problem)
    if V is None:
        counts = dict(enumerate(zeta.profile_from_scheme(problem.X, r - 1,
                                                         cap).a, 1))
    else:
        table = stratify(V, r - 1, problem.dims, cap)
        for e in table.nonempty_values():
            if m - e <= 0:
                return Fraction(0)
            for d, a in table.strata[e].counts.items():
                value *= (1 - Fraction(1, q ** ((m - e) * d))) ** a
        counts = _complement_counts(problem, table, r - 1, cap)
    for d, a in counts.items():
        value *= (1 - Fraction(1, q ** ((m + 1) * d))) ** a
    return value


# ---------------------------------------------------------------------------
# Candidate spaces and linear singularity conditions.
#
# A candidate is the index sum(code_i * q^i) over the basis rows of I_d.
# Codes are base-p digit vectors, so digit i*k + j of the index, digit j of
# code_i, is an F_p-coordinate; over F_2 the index is the bitset.  Scans
# take candidates as one digit array, a row per candidate: the index's
# little-endian bytes over p = 2, its base-p digits otherwise.

@dataclass(frozen=True)
class CandidateSpace:
    problem: SchemeProblem
    d: int
    rank: int
    basis_rows: tuple | None     # None = all of S_d (identity basis)
    flags: tuple = ()

    @property
    def monomials(self):
        return monomials_of_degree(self.problem.nvars, self.d)

    def row_of(self, index: int):
        """The candidate's coefficient row over the monomial basis."""
        spec = self.problem.field
        coeffs = linalg.from_index(spec, index, self.rank)
        if self.basis_rows is None:
            return coeffs
        return linalg.combine(spec, coeffs, self.basis_rows,
                              len(self.monomials))

    def poly_of(self, index: int) -> MPoly:
        spec = self.problem.field
        monos = self.monomials
        return MPoly(spec, self.problem.nvars,
                     {monos[t]: c
                      for t, c in linalg.entries(spec, self.row_of(index))})


def candidate_space(problem: SchemeProblem, d: int) -> CandidateSpace:
    """Basis of the degree-d forms through Z (all of S_d when Z is empty)."""
    monos = monomials_of_degree(problem.nvars, d)
    if problem.Z is None or not problem.Z.equations:
        if problem.Z is not None and not problem.Z.equations:
            # Z = P^n: only the zero form contains it
            return CandidateSpace(problem, d, 0, (), ("z-is-ambient",))
        return CandidateSpace(problem, d, len(monos), None)
    ideal = GradedIdeal(problem.field, problem.nvars, problem.Z.equations)
    basis, flag = ideal.saturated_piece(d)
    flags = () if flag == "stable" else ("saturation-capped",)
    return CandidateSpace(problem, d, basis.rank, basis.rows, flags)


def _words(rng, n):
    """n successive 32-bit outputs of rng's Mersenne Twister, from one
    getrandbits(32 n) call, whose result holds them as 32-bit words, the
    first drawn least significant."""
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"),
                         dtype="<u4")


def _draws(rng, q, rank, n):
    """n uniform candidates as a digit array: those that n calls of
    `getrandbits(rank)` over F_2, or of one `randrange(q)` per coordinate
    otherwise, would draw from rng, consuming exactly the same words, so
    seeded runs stay reproducible.

    getrandbits(rank) is ceil(rank / 32) words, least significant first,
    the last shifted right to its rank % 32 bits.  randrange(q) is the top
    q.bit_length() bits of a word, drawn again while >= q; each round takes
    as many words as values are missing, so none is read past the last."""
    if q == 2:
        w = -(-rank // 32)
        words = _words(rng, w * n).reshape(n, w).copy()
        if rank % 32:
            words[:, -1] >>= 32 - rank % 32
        return words.view(np.uint8)[:, :-(-rank // 8)]
    codes = np.empty(n * rank, dtype=np.int64)
    done = 0
    while done < len(codes):
        values = _words(rng, len(codes) - done) >> (32 - q.bit_length())
        values = values[values < q]
        codes[done:done + len(values)] = values
        done += len(values)
    p = gf.prime_factors(q)[0]
    k = 1
    while p ** k < q:
        k += 1
    if p != 2:
        return _index_digits(codes, p, k).reshape(n, -1)
    # code i holds bits k i .. k i + k - 1 of the index
    bits = (codes[:, None] >> np.arange(k) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(n, -1), axis=1, bitorder="little")


def _index_digits(indices, p, width):
    """The digit array of candidate indices given as an int64 array, each
    below p^width."""
    if p == 2:
        return (indices.astype("<u8").view(np.uint8).reshape(-1, 8)
                [:, :-(-width // 8)])
    return (indices[:, None] // p ** np.arange(width) % p).astype(
        np.min_scalar_type(p))


def _index_of(digits, p):
    """The candidate index of one row of a digit array."""
    if p == 2:
        return int.from_bytes(digits.tobytes(), "little")
    return sum(v * p ** i for i, v in enumerate(digits.tolist()))


def _x_jacobian_pivots(X: SchemePresentation, ext, rep, jac):
    """RREF rows of X's homogeneous Jacobian at the representative `rep`
    (codes of kappa(P) = ext), given as one row of codes per equation;
    raises if X is not smooth of its declared dimension at the point."""
    pivots = linalg.echelon(ext, [linalg.row(ext, X.nvars, enumerate(r))
                                  for r in jac])
    m = X.dim()
    if m is not None and len(pivots) != X.ambient_dim - m:
        at = tuple(ext.element_string(c) for c in rep)
        raise UnsupportedPresentation(
            f"X is not smooth of dimension {m} at {at}")
    return pivots


def _jet_vectors(X: SchemePresentation, ext, reps, d):
    """Per-condition vectors over kappa(P) = ext for closed points of one
    degree, given by their representatives' codes (points, nvars), indexed
    by the degree-d monomial basis: codes of shape (points, 1 + nvars,
    monomials).

    Conditions: f(P) = 0 together with the components of grad f(P) reduced
    modulo the row space of X's Jacobian at P; their simultaneous vanishing
    says the section X cap H_f is singular at P.  Row 0 holds the monomials'
    values at the representatives and row 1 + j their x_j-partials
    m_j * (m / x_j)(P), all from one `monomials` call.
    """
    arith = gf.code_arrays(ext)
    expo = np.array(monomials_of_degree(X.nvars, d), dtype=np.int64)
    lowered = [np.maximum(expo - np.eye(X.nvars, dtype=np.int64)[j], 0)
               for j in range(X.nvars)]
    coeffs = [np.ones(len(expo), dtype=np.int64)] + [
        expo[:, j] % ext.p for j in range(X.nvars)]  # codes of F_p in ext
    vecs = arith.monomials(reps, np.concatenate([expo] + lowered),
                           np.concatenate(coeffs))
    vecs = vecs.reshape(len(reps), 1 + X.nvars, len(expo))
    if not X.equations:
        return vecs
    jac = np.stack([[g.partial(j).evaluate_rows(reps, ext)
                     for j in range(X.nvars)] for g in X.equations])
    size = len(expo)
    for rep, grads, rows in zip(reps.tolist(), vecs[:, 1:],
                                jac.transpose(2, 0, 1).tolist()):
        for prow in _x_jacobian_pivots(X, ext, rep, rows):
            (pc, _), *rest = linalg.entries(ext, prow)
            for j, c in rest:
                grads[j] = arith.total(
                    [grads[j], arith.term(ext.neg(c), [(grads[pc], 1)], size)],
                    size)
            grads[pc] = 0
    return vecs


@lru_cache(maxsize=None)
def _fp_table(base: gf.FieldSpec, ext: gf.FieldSpec):
    """table[a, j, t] = digit t of x^j * a in ext, for each code a of ext and
    each power-basis element x^j of base: times a base-valued coefficient,
    an ext-valued condition is F_p-linear in the coefficient's digits."""
    emb = gf.embed_map(base, ext)
    powers = [emb[base.from_digits([0] * j + [1])] for j in range(base.k)]
    return np.array([[ext.digits(ext.mul(g, a)) for g in powers]
                     for a in range(ext.q)], dtype=np.min_scalar_type(ext.p))


def _lift(space: CandidateSpace):
    """The F_p-linear map from candidate digits to monomial-coefficient
    digits, as an int matrix (None for all of S_d)."""
    if space.basis_rows is None:
        return None
    spec = space.problem.field
    monos = space.monomials
    codes = np.zeros((space.rank, len(monos)), dtype=np.int64)
    for i, r in enumerate(space.basis_rows):
        for t, c in linalg.entries(spec, r):
            codes[i, t] = c
    return (_fp_table(spec, spec)[codes].transpose(1, 3, 0, 2)
            .reshape(len(monos) * spec.k, spec.k * space.rank)
            .astype(np.int64))


def _conditions(X: SchemePresentation, space: CandidateSpace, groups):
    """(degrees, funcs): the jet conditions at the closed points given as
    `closed_point_arrays` groups (e, kappa, orbits), as one stack in the
    groups' order of degree.  funcs is an int array over F_p of shape
    (points, rows, candidate digits), one row per digit of each
    kappa(P)-valued condition, and degrees[i] is the degree of point i; a
    candidate is singular at P exactly when all of P's rows vanish on it.
    A point of degree e fills its first (conditions) * k * e rows; the rest,
    up to the most of any point, are zero, and a zero row changes no rank,
    no reduced echelon form and no all-rows-vanish test.  The points of one
    degree are handled in chunks whose temporaries (codes of the jet
    vectors, functionals, their lift) each stay within 8 * `_BLOCK_ENTRIES`
    bytes, or one point."""
    spec = X.spec
    size = len(space.monomials)
    width = size * spec.k
    lift = _lift(space)
    if lift is not None and width * (spec.p - 1) ** 2 < 2 ** 53:
        lift = lift.astype(np.float64)  # exact, and far faster than int64
    # Euler: f(P) = 0 follows from the gradient conditions unless p | d
    skip = int(space.d % spec.p != 0)
    groups = [group for group in groups if len(group[2])]
    per_digit = 1 + X.nvars - skip
    degrees = np.repeat(np.array([e for e, _, _ in groups], dtype=np.intp),
                        [len(orbits) for _, _, orbits in groups])
    funcs = np.zeros((len(degrees),
                      max([per_digit * ext.k for _, ext, _ in groups],
                          default=0),
                      spec.k * space.rank), np.min_scalar_type(spec.p))
    lo = 0
    for _, ext, orbits in groups:
        reps = np.ascontiguousarray(orbits[:, 0])
        table = _fp_table(spec, ext)
        rows = per_digit * ext.k
        point_bytes = max(8 * (1 + X.nvars) * size,
                          table.itemsize * rows * width,
                          0 if lift is None else 8 * rows * funcs.shape[2])
        chunk = max(1, 8 * _BLOCK_ENTRIES // point_bytes)
        for i in range(0, len(reps), chunk):
            vecs = _jet_vectors(X, ext, reps[i:i + chunk], space.d)[:, skip:]
            f = (np.take(table.reshape(ext.q, -1), vecs, axis=0)
                 .reshape(vecs.shape + table.shape[1:])
                 .transpose(0, 1, 4, 2, 3).reshape(-1, rows, width))
            funcs[lo + i:lo + i + len(f), :rows] = (
                f if lift is None else (f @ lift).astype(np.int64) % spec.p)
        lo += len(reps)
    return degrees, funcs


# ---------------------------------------------------------------------------
# Smoothness certificates.  X cap H_f is smooth of dimension dim X - 1
# exactly when V(J) is empty, where J is generated by X's equations, f and
# the maximal minors of the Jacobian of (equations, f).  If J is generated
# by forms of degrees d_1 >= ... >= d_r in n + 1 variables, V(J) is empty
# over the algebraic closure exactly when J_t = S_t at
# t = sum_{i <= n+1} (d_i - 1) + 1, and never when r <= n (Macaulay 1902;
# Lazard, EUROCAL 1983).  A rank does not change under field extension, so
# one rank over F_p decides, of the rows' multiples by F_q's power basis.


def _exactable(X: SchemePresentation) -> bool:
    """Whether exact mode applies: X = P^n or a complete intersection, with
    nothing removed."""
    if X.removed:
        return False
    if not X.equations:
        return True
    m = X.dim()
    return m is not None and len(X.equations) == X.ambient_dim - m


def _jacobian_ideal_polys(equations, spec, nvars):
    eqs = [g for g in equations if g]
    r = len(eqs)
    jac = [[g.partial(j) for j in range(nvars)] for g in eqs]
    minors = []
    for cols in combinations(range(nvars), r):
        sub = [[row[c] for c in cols] for row in jac]
        det = _det(sub, spec, nvars)
        if det:
            minors.append(det)
    return eqs + minors


def _det(mat, spec, nvars):
    n = len(mat)
    if n == 0:
        return MPoly.constant(spec, nvars, 1)
    if n == 1:
        return mat[0][0]
    acc = MPoly.zero(spec, nvars)
    for j in range(n):
        if not mat[0][j]:
            continue
        sub = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(sub, spec, nvars)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _certificate_rows(problem, d):
    """The degree-t rows of J for the forms of I_d as an F_q-linear image
    of f: codes[m * k + j, row, column] for f = x^j m, with x^j in F_q's
    power basis.

    The multiples of X's equations, X's graded piece of degree t, are a
    fixed block, so the other rows are taken modulo it: J_t = S_t exactly
    when they span the ncols-dimensional quotient, read on the non-pivot
    columns of the block's echelon form.
    Each other generator, f or a minor by cofactor expansion along f's row,
    is F_q-linear in f.  t counts every generator slot, zero or not: a zero
    generator can only lower the degree f needs, and J_t = S_t carries over
    to every larger t.  Over p not dividing d with X = P^n, Euler's
    d f = sum x_j df/dx_j puts f in the ideal of its partials: left out.
    With r nonzero equations in N variables there are
    r + [r > 0 or p | d] + C(N, r + 1) >= N generator degrees (for r < N,
    C(N, j) >= N - j + 1 at j = r + 1), so t always exists.

    The rows are built by linearity.  Reduction modulo the block is a
    linear map: the unit row of a pivot column c reduces to minus the
    block's row at c, and that of a free column to itself, both read on the
    free columns.  The slot generators g of f = m are built once per m; the
    row mu * g of f = x^j m is the sum, over g's terms c x^e, of x^j c times
    the reduced unit row of e + mu, gathered in numpy as F_p-digits."""
    spec, nvars = problem.field, problem.nvars
    p, k = spec.p, spec.k
    eqs = [g for g in problem.X.equations if g]
    r = len(eqs)
    jac = [[g.partial(j) for j in range(nvars)] for g in eqs]
    # a slot is a generator sum(cofactor * (f if j is None else df/dx_j))
    slots = []
    if eqs or d % p == 0:
        slots.append((d, [(MPoly.constant(spec, nvars, 1), None)]))
    minor_degree = sum(g.homogeneous_degree() - 1 for g in eqs) + d - 1
    for cols in combinations(range(nvars), r + 1):
        cofactors = []
        for i, c in enumerate(cols):
            cof = _det([[row[b] for b in cols if b != c] for row in jac],
                       spec, nvars)
            cofactors.append((-cof if (r + i) % 2 else cof, c))
        slots.append((minor_degree, cofactors))
    degrees = sorted([g.homogeneous_degree() for g in eqs]
                     + [deg for deg, _ in slots], reverse=True)
    t = max(0, sum(e - 1 for e in degrees[:nvars]) + 1)

    def monomials(deg):
        return np.array(monomials_of_degree(nvars, deg),
                        dtype=np.int64).reshape(-1, nvars)

    # the graded-lex order of S_t lists the base-(t + 1) keys descending
    place = (t + 1) ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    keys = -(monomials(t) @ place)
    size = len(keys)

    def column(expo):
        return np.searchsorted(keys, -(expo @ place))

    def terms(g):
        return (np.array(list(g.terms), dtype=np.int64).reshape(-1, nvars),
                list(g.terms.values()))

    echelon = GradedIdeal(spec, nvars, eqs).piece(t).rows
    fixed = np.zeros((len(echelon), size), dtype=np.int64)
    for row, out in zip(echelon, fixed):
        for c, a in linalg.entries(spec, row):
            out[c] = a
    pivots = (fixed != 0).argmax(axis=1)
    free = np.delete(np.arange(size), pivots)
    # reduced[c, free column] = the F_p-digits of unit row c modulo the block
    table = _fp_table(spec, spec)
    reduced = np.zeros((size, len(free), k), dtype=np.int64)
    reduced[free, np.arange(len(free)), 0] = 1
    reduced[pivots] = -table[fixed[:, free], 0].astype(np.int64) % p

    powers = [spec.from_digits([0] * j + [1]) for j in range(k)]
    live = [(monomials(t - deg), cofactors) for deg, cofactors in slots
            if deg <= t]
    monos = monomials_of_degree(nvars, d)
    codes = np.empty((len(monos) * k, sum(len(mu) for mu, _ in live),
                      len(free)), dtype=np.min_scalar_type(spec.q))
    radix = p ** np.arange(k)
    for i, m in enumerate(monos):
        f = MPoly(spec, nvars, {m: 1})
        rows = []
        for mu, cofactors in live:
            expo, coeffs = terms(sum(
                (cof * (f if c is None else f.partial(c))
                 for cof, c in cofactors), MPoly.zero(spec, nvars)))
            # scale[j, term]: the F_p-matrix of x^j times that coefficient
            scale = table[np.array([[spec.mul(x, c) for c in coeffs]
                                    for x in powers],
                                   dtype=np.intp).reshape(k, -1)]
            rows.append(np.einsum("atfi,jtio->jafo",
                                  reduced[column(mu[:, None] + expo)], scale))
        codes[i * k:(i + 1) * k] = np.concatenate(rows, axis=1) % p @ radix
    return codes


@lru_cache(maxsize=16)
def _certificate_context(problem, d):
    """`_certificate_rows` as a dense F_p-linear map with `_lift` folded in:
    (columns, images), images[s] the rows that candidate digit s adds, each
    F_q row r as its k multiples x^j r.  Over F_2 the rows are packed,
    column c at bit c % 64 of uint64 word c // 64, and the digits padded to
    whole bytes; otherwise they are float64."""
    codes = _certificate_rows(problem, d)
    spec = problem.field
    rows, ncols = codes.shape[1] * spec.k, codes.shape[2] * spec.k
    images = (_fp_table(spec, spec)[codes].transpose(0, 1, 3, 2, 4)
              .reshape(len(codes), -1))
    lift = _lift(candidate_space(problem, d))
    if lift is not None:
        images = lift.T @ images % spec.p
    images = images.reshape(len(images), rows, ncols)
    if spec.p != 2:
        return ncols, images.astype(np.float64)
    packed = np.packbits(images, axis=2, bitorder="little")
    packed = np.pad(packed, ((0, -len(packed) % 8), (0, 0),
                             (0, -packed.shape[2] % 8)))
    return ncols, packed.view(np.uint64)


def _certify_smooth(problem, d, digits):
    """For each candidate of I_d (a row of the digit array), whether X cap
    H_f is smooth of dimension dim X - 1: J_t = S_t, by one stacked
    F_p-rank per batch, its rows from XOR tables over F_2 (`_xor_images`;
    a batch of at least 256 candidates reads 8-bit chunks, a shorter last
    one narrower ones) and from one float64 product mod p otherwise."""
    p = problem.field.p
    out = np.zeros(len(digits), dtype=bool)
    ncols, images = _certificate_context(problem, d)
    width, rows, cols = images.shape
    flat = images.reshape(width, rows * cols)
    step = (max(256, _BLOCK_ENTRIES // max(rows * cols, 1)) if p == 2
            else max(1, _DIGIT_ENTRIES // max(rows * cols, 1)))
    for lo in range(0, len(digits), step):
        batch = digits[lo:lo + step]
        if p == 2:
            image = _xor_images(batch, flat)
        else:
            image = batch.astype(np.float64) @ flat
            image -= p * np.floor(image / p)  # float % is slow
        rank = linalg.rank_stack(image.reshape(-1, rows, cols), p)
        out[lo:lo + step] = rank == ncols
    return out


# the largest power w^n tried when proving V(J) lies in the removed locus
_RADICAL_POWER_CAP = 6


def _empty_on_open(J: GradedIdeal, removed, e_max) -> EmptinessCertificate:
    """Emptiness of V(J) outside the removed locus: the embedder's
    certificate, a point search over F_{q^e}, e <= e_max, then degrees."""
    wit = J.find_point(e_max, removed)
    if wit is not None:
        return EmptinessCertificate("nonempty", witness=wit[0],
                                    witness_field=wit[1])
    direct = J.is_projectively_empty()
    if direct.status == "empty" or not removed:
        return direct
    # V(J) subset of the removed locus: radical membership for each generator
    for w in removed:
        ok = False
        wn = w
        for _ in range(_RADICAL_POWER_CAP):
            if J.contains(wn):
                ok = True
                break
            wn = wn * w
        if not ok:
            return EmptinessCertificate("inconclusive")
    return EmptinessCertificate("empty")


# ---------------------------------------------------------------------------
# The shared scan: per candidate f, the total degree of singular points of
# X cap H_f found at degree <= B.  Exact mode then decides the scan-clean
# candidates by one of two routes: on a free P^n or a smooth quadric
# surface in P^3, the scan on to the proven degree bound of `_degree_bound`
# or `_quadric_bound` when `_degree_route` finds it cheaper than the forms;
# otherwise the smoothness certificate of each one.

_INFINITE = -1  # sentinel ell value for f = 0


@dataclass(frozen=True)
class ScanResult:
    d: int
    count_total: int
    ell_counts: tuple        # ((ell, count), ...), ell >= 1 or _INFINITE
    smooth_count: int
    unresolved: int          # scan-clean, yet certifiably singular
    flags: tuple


def _run_scan(problem, d, budget, sing_bound, exact, seed, cap):
    spec = problem.field
    X = problem.X
    if exact and not _exactable(X):
        raise UnsupportedPresentation(
            "exact mode supports X = P^n or a complete intersection "
            "presentation, with no removed locus")
    space = candidate_space(problem, d)
    exhaustive = budget[0] == "exhaustive"
    if exhaustive:
        total = spec.q ** space.rank
        if total > cap:
            raise variety.EnumerationCapExceeded(
                f"|I_d| = {total} exceeds cap {cap}")
        if total >= 1 << 63:  # candidate indices are int64
            raise variety.EnumerationCapExceeded(
                f"|I_d| = {total} reaches 2^63, past the int64 candidate "
                "indices")
    else:
        total = budget[1]
    flags = list(space.flags)
    top = (_degree_route(problem, d, sing_bound, total, cap)
           if exact and exhaustive else None)
    degrees, funcs = _conditions(X, space, closed_point_arrays(
        X, sing_bound if top is None else top, cap))
    split = int(np.searchsorted(degrees, sing_bound, side="right"))
    low = degrees[:split], funcs[:split]
    if exhaustive:
        ell = _scan_all(space, low)
        ell[0] = _INFINITE   # f = 0
    else:
        digits = _draws(random.Random(seed), spec.q, space.rank, total)
        ell = _ells(space, low, digits)
        ell[~digits.any(axis=1)] = _INFINITE
    counter = _tally(ell)
    clean = counter.pop(0, 0)
    unresolved = 0
    if top is not None:  # the degree route: scan on to B*
        _scan_all(space, (degrees[split:], funcs[split:]), ell)
        smooth = int(np.count_nonzero(ell[1:] == 0))
        unresolved = clean - smooth
    elif exact:  # resolve scan-clean candidates, one certificate each
        clean = np.flatnonzero(ell == 0)  # positions = indices if exhaustive
        candidates = (_index_digits(clean, spec.p, spec.k * space.rank)
                      if exhaustive else digits[clean])
        smooth = int(_certify_smooth(problem, d, candidates).sum())
        unresolved = len(clean) - smooth
    else:
        smooth = clean
    flags.append("exact-certificates" if exact
                 else f"bounded-smoothness:B={sing_bound}")
    return ScanResult(d, total, tuple(sorted(counter.items())), smooth,
                      unresolved, tuple(dict.fromkeys(flags)))


def _degree_bound(n, d):
    """B*(n, d): every singular hypersurface of degree d in P^n has a singular
    closed point of degree <= B*; None where no bound is proven.  Forms
    through any Z are still hypersurfaces of P^n, so the bound holds for them.
    Throughout, a closed point lying in a Frobenius-stable set of N geometric
    points, or in an F_q-scheme of degree N, has degree <= N.  The rows for
    sections of a smooth quadric surface in P^3 are `_quadric_bound`'s.

    - d = 1, or n = 0: 0.  A nonzero linear form has a nonzero partial, and
      on P^0 a nonzero form has no zeros.
    - n = 1: floor(d/2).  A singular binary form has a repeated factor g^2,
      defined over F_q because its roots are a stable set, and the roots of
      g have degree <= deg g <= d/2.
    - d = 2: 1.  The singular locus of a quadric Q is an F_q-linear
      subspace: P(rad B) of its polar form B for odd p; for p = 2 the zero
      set on rad B of Q, which is additive there with Q(cv) = c^2 Q(v), so
      the square of a linear form (F_q is perfect).  A nonempty linear subspace defined over
      F_q has a rational point.
    - n = 2: the largest of four cases of a singular curve V(f).
      Non-reduced, f = g^2 h with g over F_q: V(f) is singular along V(g),
      which meets a rational line in an F_q-scheme of degree deg g <= d/2,
      or contains it.
      Two coprime F_q-factors of degrees a + b = d: they meet, in singular
      points forming an F_q-scheme of degree ab <= d^2/4 (Bezout).
      Geometrically irreducible: at most (d-1)(d-2)/2 singular points
      (Fulton, Algebraic Curves).  F_q-irreducible with e >= 2 conjugate
      components C_i = Frob^i(C_0) of degree d/e: any two meet, in at most
      (d/e)^2 singular points.  For even e the pairs {i, i + e/2} form one
      Frobenius orbit of e/2 pairs, a stable set of at most d^2/(2e) points;
      for odd e the pairs {i, i + 1} form one of e pairs, at most d^2/e.
    - n = 3, d = 3: 4.  (a) f = l g with l linear over F_q: V(l) cap V(g)
      is the plane V(l) or a conic in it, with a rational point by
      Chevalley-Warning.  (b) F_q-irreducible but geometrically reducible:
      three conjugate planes, whose pairwise lines are defined over F_{q^3}
      and have points of degree <= 3.  (c) Geometrically irreducible: the
      line through two singular points meets S = V(f) with multiplicity
      >= 4, so it lies in S.  If Sing S is infinite, this leaves it one
      line (two lines, a line and a point, or a curve not a line would put
      a plane or all of P^3 in S), which is stable, so defined over F_q.
      Otherwise let P = (1:0:0:0) be singular, f = x_0 f_2 + f_3.  With
      f_2 = 0, S is a cone over a smooth plane cubic, singular only at P.
      Otherwise f_2 and f_3 share no factor, and another singular point
      (t : v) has f_2(v) = f_3(v) = 0 and t grad f_2(v) = -grad f_3(v)
      with grad f_2(v) != 0 (else the line Pv is singular): V(f_2) and
      V(f_3) meet at v with multiplicity >= 2, and v fixes t.  Their
      intersection has degree 6 (Bezout), so |Sing S| <= 1 + 3.
    """
    if d <= 1 or n == 0:
        return 0
    if n == 1:
        return d // 2
    if d == 2:
        return 1
    if n == 2:
        conjugate = [d * d // (2 * e if e % 2 == 0 else e)
                     for e in range(2, d + 1) if d % e == 0]
        return max([d // 2, d * d // 4, (d - 1) * (d - 2) // 2] + conjugate)
    if (n, d) == (3, 3):
        return 4
    return None


def _quadric_bound(d, split):
    """B* for a smooth quadric surface Q in P^3: every singular section
    Q cap H_f by a form of degree d has a singular closed point of degree
    <= B*; None where no bound is proven.  Over the algebraic closure Q is
    P^1 x P^1, and Q cap H_f is a curve of bidegree (d, d), or all of Q when
    Q divides f, singular at Q's rational points.  Frobenius keeps each
    ruling when Q is split ((q + 1)^2 rational points) and swaps them when
    it is not (q^2 + 1).  Curves of bidegrees (a, b) and (c, e) meet in
    ae + bc points counted with multiplicity, and an irreducible one of
    bidegree (a, b) has arithmetic genus (a - 1)(b - 1), a bound on its
    singular points (Hartshorne V.1).  As for `_degree_bound`, a closed
    point in a Frobenius-stable set of N geometric points has degree <= N.

    - d = 1: 1.  A plane section singular at P is the section by the
      tangent plane T_P Q: two distinct lines meeting only at P.  So P is
      its one singular point, and it is stable, so rational.
    - d = 2: 2 when Q is split, 4 when not.  A singular curve C of
      bidegree (2, 2) is one of these.
      Non-reduced: C is singular along the support D of its multiple part,
      which is stable, of bidegree (1, 0), (0, 1) or (1, 1).  A stable line
      of a ruling is defined over F_q (Q is then split), so it has rational
      points.  A (1, 1) curve is a plane section Q cap H, and H, spanned by
      D, is defined over F_q: a plane conic over F_q, which has a rational
      point by Chevalley-Warning.
      Geometrically irreducible: genus 1, so at most one singular point.
      Reduced with two geometric components: they meet in a stable set of
      at most two points, the largest ae + bc for (a, b) + (c, e) = (2, 2).
      With three or four (a line of each ruling and a (1, 1) conic, or two
      lines of each ruling): the components are smooth, each pair meets in
      at most one point, and at most two share a bidegree.  Frobenius
      permutes the components of each bidegree when Q is split, so Frob^2
      fixes each component; when not it swaps (a, b) and (b, a), so Frob^4
      does.  That power then fixes each meeting point, of degree <= 2 or
      <= 4.  The non-split bound is reached: for a line L of a ruling with
      Frob^4 L = L != Frob^2 L, the lines L, Frob L, Frob^2 L and Frob^3 L
      form a curve of bidegree (2, 2) over F_q whose 4 singular points,
      Frob^i L cap Frob^(i+1) L, are one closed point of degree 4.
    - Otherwise none.  At d = 3 three conjugate (1, 1) conics already have
      meeting points of degree 6.
    """
    if d == 1:
        return 1
    if d == 2:
        return 2 if split else 4
    return None


def _quadric_split(X, cap):
    """Whether X is a split (True) or non-split (False) smooth quadric
    surface in P^3, told by its rational points: (q + 1)^2 or q^2 + 1, where
    a singular quadric has q^2 + q + 1, 2q^2 + q + 1 or q + 1.  None for any
    other X, and where its rational points pass the cap."""
    if (X.nvars != 4 or X.removed or X.dim() != 2 or len(X.equations) != 1
            or X.equations[0].homogeneous_degree() != 2):
        return None
    q = X.spec.q
    try:
        rational = variety.raw_point_count(X, 1, cap)
    except variety.EnumerationCapExceeded:
        return None
    return {(q + 1) ** 2: True, q * q + 1: False}.get(rational)


def _degree_route(problem, d, sing_bound, total, cap=DEFAULT_CAP):
    """B* = max(B, the proven bound) when an exhaustive exact scan decides
    smoothness by scanning on to B*, None when it certifies: on a free P^n
    by `_degree_bound`, on a smooth quadric surface by `_quadric_bound`.

    A nonzero f is clean at B* exactly when X cap H_f is smooth.  The scan
    goes on when the jet-condition rows of the closed points of degree
    B+1..B*, (n + 1 + [p | d]) k e a_e at degree e, are fewer than the
    |I_d| forms, and those points are within the point cap.  The a_e come
    by Moebius inversion from closed forms of N_e, before anything past the
    rational points is enumerated: |P^n(F_{q^e})|, and (q^e + 1)^2 for a
    split quadric, for a non-split one too at even e, q^(2e) + 1 at odd
    e."""
    X, q = problem.X, problem.field.q
    if X.is_free_ambient():
        split, bound = None, _degree_bound(problem.nvars - 1, d)
    else:
        split = _quadric_split(X, cap)
        bound = None if split is None else _quadric_bound(d, split)
    if bound is None:
        return None
    top = max(sing_bound, bound)
    past = range(max(sing_bound, 0) + 1, top + 1)
    try:
        variety.check_enumeration_cap(X, past, cap)
    except variety.EnumerationCapExceeded:
        return None
    a = (zeta.profile_from_scheme(X, top).a if split is None
         else variety.closed_point_counts([
             (q ** e + 1) ** 2 if split or e % 2 == 0 else q ** (2 * e) + 1
             for e in range(1, top + 1)]))
    per_digit = problem.nvars + int(d % problem.field.p == 0)  # f(P), p | d
    rows = sum(per_digit * problem.field.k * e * a[e - 1] for e in past)
    return top if rows < total else None


def _tally(ell):
    """{value: count} of an ell array (entries >= _INFINITE), counted per
    sorted block of `_DIGIT_ENTRIES` entries, each cast to at least int16
    first: numpy sorts int8 about 40 times slower than int16."""
    counts = np.zeros(0, dtype=np.int64)
    for lo in range(0, len(ell), _DIGIT_ENTRIES):
        part = ell[lo:lo + _DIGIT_ENTRIES].astype(
            np.promote_types(ell.dtype, np.int16))
        part.sort()
        first, last = int(part[0]), int(part[-1])
        if len(counts) < last + 2:
            counts = np.pad(counts, (0, last + 2 - len(counts)))
        ends = np.searchsorted(part, np.arange(first, last + 1,
                                               dtype=part.dtype), "right")
        counts[first + 1:last + 2] += np.diff(ends, prepend=0)
    return {v - 1: c for v, c in enumerate(counts.tolist()) if c}


def _scan_all(space, conds, ell=None):
    """ell for every candidate index, from a `_conditions` stack, in the
    narrowest signed dtype holding every ell + 1; given `ell`, the
    candidates singular at a point of the stack are marked 1 there instead.
    One elimination stores each block's pivot rows at their columns, the
    kernel vectors at the free columns are read off them, and their spans
    at the points of each (rank, degree) are enumerated as index arrays;
    over F_2 a kernel vector's bits are its index's, and kernels of rank r
    with 2^r at most `_SCATTER_PRICE` are read off every candidate
    instead (`_dense_f2`)."""
    p = space.problem.field.p
    degrees, funcs = conds
    mark = ell is not None
    if not mark:
        total = int(degrees.sum())
        ell = np.zeros(space.problem.field.q ** space.rank, dtype=next(
            t for t in (np.int8, np.int16, np.int32, np.int64)
            if np.iinfo(t).max > total))
    dtype = ell.dtype.type
    points, rows, width = funcs.shape
    keys = int(degrees.max(initial=0)) + 1
    per_point = max(rows, width) * (1 if p == 2 else width)  # words, entries
    step = max(1, _DIGIT_ENTRIES // max(per_point, 1))
    for lo in range(0, points, step):
        if p == 2:
            rank, basis = linalg.pivot_rows_f2(funcs[lo:lo + step])
            kernel, free = linalg.kernel_f2(basis), basis == 0
        else:
            rank, basis = linalg.pivot_rows_mod_p(funcs[lo:lo + step], p)
            kernel, free = linalg.kernel_mod_p(basis, p), ~basis.any(axis=2)
        key = rank * keys + degrees[lo:lo + step]
        for k in np.flatnonzero(np.bincount(key)).tolist():
            r, degree = divmod(k, keys)
            sel = np.flatnonzero(key == k)
            if r == 0 and mark:  # vacuous: singular everywhere
                ell[:] = 1
            elif r == 0:
                ell += dtype(degree * len(sel))
            elif r < width and p == 2 and 1 << r <= _SCATTER_PRICE:
                _dense_f2(ell, basis[sel][~free[sel]].reshape(len(sel), r),
                          width, dtype(degree), mark)
            elif r < width:               # a full rank leaves only f = 0
                vectors = kernel[sel][free[sel]].reshape(
                    len(sel), width - r, *kernel.shape[2:])
                kernels = (_span_f2(vectors) if p == 2 else
                           _span_mod_p(vectors, free[sel], p))
                for members in kernels:
                    if mark:
                        ell[members.ravel()] = 1
                    else:  # a dtype scalar keeps np.add.at's fast loop
                        np.add.at(ell, members.ravel(), dtype(degree))
                    del members  # else it lives on while the next is built
    return ell


def _dense_f2(ell, rows, width, weight, mark):
    """`_scan_all`'s step for points whose kernels hold many candidates, by
    passes over all of them.  f lies in a point's kernel when its r pivot
    rows (shape (points, r), bitsets of `width` columns) all have even
    parity on f's bits, that is when f's r-bit syndrome is 0.  With f = hi
    * 2^low + lo, that syndrome is the XOR of those of hi * 2^low and of
    lo, read off tables of each half built by XOR doubling from the
    syndromes of the unit vectors; so ell gains `weight` per point (or is
    set to 1 if mark) where the two tables agree, on the ell grid
    (2^(width - low), 2^low), in blocks whose bool masks over the points
    of a pass, and whose counts, take at most 8 * `_DIGIT_ENTRIES` bytes."""
    r = rows.shape[1]
    low = (width + 1) // 2
    lane = np.min_scalar_type((1 << r) - 1)
    bits = rows[:, :, None] >> np.arange(width, dtype=rows.dtype) & 1
    units = np.bitwise_or.reduce(
        bits.astype(lane) << np.arange(r, dtype=lane)[:, None], axis=1)
    grid = ell.reshape(-1, 1 << low)
    per_pass = max(1, 8 * _DIGIT_ENTRIES >> low)
    for at in range(0, len(units), per_pass):
        lows = _xor_span(units[at:at + per_pass, :low])
        highs = _xor_span(units[at:at + per_pass, low:])
        step = max(1, 8 * _DIGIT_ENTRIES
                   // (max(len(lows), ell.itemsize) << low))
        for lo in range(0, len(grid), step):
            hit = highs[:, lo:lo + step, None] == lows[:, None]
            block = grid[lo:lo + step]
            if mark:
                hit = hit.any(axis=0)
                block *= ~hit
                block += hit
            else:
                block += hit.sum(axis=0, dtype=ell.dtype) * weight
            del hit  # else the next block's mask is built beside it


def _xor_span(vectors):
    """Every XOR of a subset of the m vectors of each row (shape (n, m,
    ...)), shape (n, 2^m, ...): at j, the XOR of those at the set bits of
    j, built by doubling."""
    out = np.zeros((len(vectors), 1 << vectors.shape[1], *vectors.shape[2:]),
                   vectors.dtype)
    for j in range(vectors.shape[1]):
        np.bitwise_xor(out[:, :1 << j], vectors[:, j, None],
                       out=out[:, 1 << j:2 << j])
    return out


def _span_f2(basis):
    """Every XOR of a subset of each row of a kernel basis over F_2 (shape
    (points, dim)), as blocks of shape (points, 2^dim) of at most
    `_DIGIT_ENTRIES` entries; a larger span comes one point at a time, as
    the cosets of the span of its first floor(log2 `_DIGIT_ENTRIES`)
    vectors."""
    n, dim = basis.shape
    low = min(dim, _DIGIT_ENTRIES.bit_length() - 1)
    block = max(1, _DIGIT_ENTRIES >> dim)
    for lo in range(0, n, block):
        part = basis[lo:lo + block].astype(np.int64)
        members = _xor_span(part[:, :low])
        yield members
        for offset in _xor_span(part[:, low:]).T[1:]:
            yield members ^ offset[:, None]
        del members  # else it lives on while the next block is built


def _span_mod_p(vectors, free, p):
    """`_span_f2` over odd p, of kernel vectors as digit rows (shape
    (points, dim, width)) at the columns of the mask `free`, as blocks of
    candidate indices.  Free columns are lone, so a combination's index
    adds a * p^f over them, and only its digits at the pivot columns are
    summed and reduced mod p, in the vectors' dtype: it holds p^2."""
    n, dim, width = vectors.shape
    cols = np.argsort(free, axis=1, kind="stable")  # pivot columns first
    rank = width - dim
    at = np.take_along_axis(vectors, cols[:, None, :rank], axis=2)
    steps = np.int64(p) ** cols[:, rank:]
    weights = np.int64(p) ** cols[:, :rank]
    size = p ** dim
    block = max(1, _DIGIT_ENTRIES // (size * (rank + 1)))
    for lo in range(0, n, block):
        part = slice(lo, lo + block)
        members = np.zeros((len(steps[part]), size), dtype=np.int64)
        digits = np.zeros((len(members), size, rank), dtype=vectors.dtype)
        for j in range(dim):
            span = p ** j
            for a in range(1, p):
                new = slice(a * span, (a + 1) * span)
                members[:, new] = members[:, :span] + a * steps[part, j, None]
                digits[:, new] = (digits[:, :span] + a * at[part, j, None]) % p
        yield members + np.einsum("ist,it->is", digits, weights[part])
        del members, digits  # else they live on while the next are built


# Entries per block of numpy work.  Each bounds temporaries counted as
# 8-byte entries, so it limits them to the bytes below, and narrower
# entries to fewer bytes.
# _DIGIT_ENTRIES, 512 KB: in `_scan_all`, a block of the stack to eliminate
# (over odd p its entries, pivot rows and kernel vectors, max(rows, columns)
# per column of each point, int8 or int16 as columns * p^2 needs; over F_2
# its rows, pivot rows and kernel vectors, a word of at most 8 bytes each,
# 512 KB, while its uint8 entries are read in place) and the kernel indices
# per block, with their pivot-column digits over odd p, a larger span over
# F_2 going as cosets of a span of _DIGIT_ENTRIES; over F_2 a dense pass's
# bool mask over its points per block of ell, and the block's counts, 8 *
# _DIGIT_ENTRIES bytes each at most (its syndrome tables, 2^(columns / 2)
# bytes per point, are far smaller); a block of ell in `_tally`, at least
# int16 and sorted in place; the float64 digits per batch of candidates in
# the sampled classifier over odd p; the certificate's float64 images per
# batch over odd p.
# _BLOCK_ENTRIES, 128 KB: in `_conditions`, each temporary of a chunk of
# points (int64 codes of the jet vectors, the functionals, their float64
# lift); in the sampled classifier, per block of points, their float64
# functionals and values and float32 nonzero mask over odd p, and over F_2
# the block's XOR tables (2^c uint64 entries per c-bit chunk of the
# candidates and per word of lanes, c fitted to the batch) and a batch of
# its candidates' images; the certificate's XOR tables and images over
# F_2.
_DIGIT_ENTRIES = 1 << 16
_BLOCK_ENTRIES = 1 << 14
# The price of one kernel member scattered into ell over that of one
# candidate in a dense pass: over F_2 the points of rank r go dense when 2^r
# is at most this.  Rational points, 2 CPUs, numpy 2.4.6 with AVX-512,
# elimination included: on P^2 at d = 5 (rank 3, 2^21 candidates) 2.7-3.0
# ns per member against 0.20-0.22 ns per candidate per pass, 13-14; on P^3
# at d = 3 (rank 4, 2^20) 17-18, near even at 2^4; on P^1 at d = 20 (rank
# 2) 8-10, and on P^2 at d = 4 (2^15) about 9, where calls cost more.
_SCATTER_PRICE = 14


def _ells(space, conds, digits):
    """ell for each candidate (a row of the digit array): the total degree
    of the points of a `_conditions` stack whose jet conditions all vanish
    on it, by XOR tables over F_2 and by products mod p otherwise."""
    p = space.problem.field.p
    if p == 2:
        return _ells_f2(digits, *conds)
    degrees, funcs = conds
    out = np.zeros(len(digits), dtype=np.int64)
    step = max(1, _DIGIT_ENTRIES // max(digits.shape[1], 1))
    for lo in range(0, len(digits), step):
        out[lo:lo + step] = _hits_mod_p(digits[lo:lo + step].astype(
            np.float64), degrees, funcs, p)
    return out


def _hits_mod_p(digits, degrees, funcs, p):
    """Per row of float64 digits, the total degree of the points whose
    functionals all vanish mod p on it; sums stay far below 2^53, so
    float64 tells multiples of p.  A point's nonzero rows are counted by
    one float32 product with a ones vector, exact below 2^24 rows."""
    n, width = digits.shape
    rows = funcs.shape[1]
    hits = np.zeros(n, dtype=np.int64)
    ones = np.ones(rows, dtype=np.float32)
    per_block = max(1, _BLOCK_ENTRIES // max(rows, 1) // max(width, n))
    for i in range(0, len(funcs), per_block):
        block = funcs[i:i + per_block]
        prod = digits @ block.reshape(-1, width).T.astype(np.float64)
        prod /= p
        nonzero = (prod != np.floor(prod)).astype(np.float32)
        count = nonzero.reshape(n, len(block), rows) @ ones
        hits += (count == 0) @ degrees[i:i + per_block]
    return hits


def _ells_f2(digits, degrees, funcs):
    """`_ells` over F_2, on candidate bytes (a row per candidate), by the
    method of Four Russians.

    A point of degree e has rows * e / (the top degree) rows of its own
    (see `_conditions`); they are packed into one lane, the narrowest of
    uint8 to uint64 that holds them, or into several 64-bit words, and
    the points of one lane width are taken in blocks.  Row b of a packed
    block is the image of candidate bit b, a block is padded with empty
    lanes to whole 64-bit words, the unit of all XORs, and its XOR tables
    are built once: 2^c entries per c-bit chunk of the candidates and
    word, at most `_BLOCK_ENTRIES` words (128 KB) in all, c fitted to the
    batch by `_chunk_width`.  Every candidate then reads its images there,
    a batch at a time."""
    n, nbytes = digits.shape
    points, rows, width = funcs.shape
    out = np.zeros(n, dtype=np.float64)  # exact sums of float32 counts
    if not points:
        return out.astype(np.int64)
    c = _chunk_width(n, width)
    chunks = _chunks(digits, c, width)
    own = rows * degrees // degrees.max()
    size = np.where(own > 64, -(-own // 64) * 8,
                    1 << np.searchsorted([8, 16, 32], own))  # lane bytes
    words = max(1, _BLOCK_ENTRIES // ((1 << c) * max(chunks.shape[1], 1)))
    if 2 * (_BLOCK_ENTRIES // max(n, 1)) >= words:
        # half-width tables that take every candidate at once cost fewer
        # calls than full ones that take two batches
        words = max(1, min(words, _BLOCK_ENTRIES // max(n, 1)))
    batch = _BLOCK_ENTRIES // words
    counts = np.bincount(size)
    for s in np.flatnonzero(counts).tolist():
        lane = np.dtype(f"<u{min(s, 8)}")
        powers = (np.uint64(1) << np.arange(64, dtype=np.uint64)).astype(lane)
        start = int(np.searchsorted(size, s))
        step = max(1, 8 * words // s)
        for i in range(start, start + counts[s], step):
            block = funcs[i:min(i + step, start + counts[s])]
            slots = -(-len(block) * s // 8) * 8 // s
            packed = np.zeros((c * chunks.shape[1], slots, max(1, s // 8)),
                              lane)
            span = min(8 * s, 64)
            for w in range(packed.shape[2]):
                part = block[:, w * span:(w + 1) * span]
                packed[:width, :len(block), w] = np.einsum(
                    "irc,r->ci", part, powers[:part.shape[1]])
            tables = _xor_tables(packed.reshape(
                len(packed), slots * packed.shape[2]).view(np.uint64), c)
            weights = degrees[i:i + len(block)].astype(np.float32)
            for lo in range(0, n, batch):
                lanes = _xor_read(tables, chunks[lo:lo + batch]).view(
                    lane).reshape(-1, slots, packed.shape[2])
                zero = np.bitwise_or.reduce(lanes[:, :len(block)],
                                            axis=2) == 0
                out[lo:lo + batch] += np.dot(zero, weights)
    return out.astype(np.int64)


def _chunk_width(n, bits):
    """The chunk width c in {8, 4, 2, 1} for n candidates of `bits` bits
    that builds and reads the fewest table entries per word,
    ceil(bits / c) * (2^c + n); ties go to the larger c.  About log2 n, as
    in the method of Four Russians (Albrecht, Bard and Hart, ACM TOMS
    2010)."""
    return min((8, 4, 2, 1), key=lambda c: -(-bits // c) * ((1 << c) + n))


def _chunks(octets, c, bits):
    """Per candidate (a row of bytes), its ceil(bits / c) chunks of c bits,
    the least significant first."""
    if c < 8:
        octets = (octets[:, :, None] >> np.arange(0, 8, c, dtype=np.uint8)
                  & (1 << c) - 1).reshape(len(octets), -1)
    return octets[:, :-(-bits // c)]


def _xor_tables(bits, c):
    """T_j[v], the XOR of the images (uint64 rows of `bits`, c per chunk j
    of the candidates) of the set bits of v at chunk j."""
    return _xor_span(bits.reshape(len(bits) // c, c, bits.shape[1]))


def _xor_read(tables, chunks):
    """Per candidate (a row of chunks), the XOR of T_j at its chunk j."""
    image = np.zeros((len(chunks), tables.shape[2]), dtype=np.uint64)
    for j, table in enumerate(tables):
        image ^= np.take(table, chunks[:, j], axis=0)
    return image


def _xor_images(octets, bits):
    """Per candidate (a row of bytes), the XOR of the images (uint64 rows
    of `bits`, 8 per byte) of its set bits, by the method of Four Russians:
    `_xor_tables` in blocks of at most `_BLOCK_ENTRIES` words, read at each
    chunk."""
    c = _chunk_width(len(octets), len(bits))
    chunks = _chunks(octets, c, len(bits))
    image = np.empty((len(octets), bits.shape[1]), dtype=np.uint64)
    step = max(1, _BLOCK_ENTRIES // ((1 << c) * max(chunks.shape[1], 1)))
    for lo in range(0, bits.shape[1], step):
        image[:, lo:lo + step] = _xor_read(
            _xor_tables(bits[:, lo:lo + step], c), chunks)
    return image


# ---------------------------------------------------------------------------

def default_sing_bound(problem) -> int:
    dims = [d for d in ([problem.X.dim()] + list(problem.dims.values()))
            if d is not None]
    return max(2, max(dims, default=1) + 1)


def _default_exact(problem, budget, degrees) -> bool:
    return (budget[0] == "exhaustive" and problem.nvars == 3
            and problem.X.is_free_ambient() and max(degrees) <= 5)


def estimate_density(problem: SchemeProblem, degrees, budget=("exhaustive",),
                     sing_bound=None, exact=None, seed=0,
                     cap: int = DEFAULT_CAP) -> DensityReport:
    """Empirical fraction of f in I_d with X cap H_f smooth of dimension
    dim X - 1, per degree and aggregated; f = 0 counts in the denominator
    and never as smooth."""
    degrees = list(degrees)
    if sing_bound is None:
        sing_bound = default_sing_bound(problem)
    if exact is None:
        exact = _default_exact(problem, budget, degrees)
    per_degree = []
    total_smooth = 0
    total_all = 0
    flags = []
    for d in degrees:
        res = _run_scan(problem, d, budget, sing_bound, exact, seed, cap)
        per_degree.append((d, EstimateValue(res.smooth_count, res.count_total)))
        total_smooth += res.smooth_count
        total_all += res.count_total
        flags.extend(res.flags)
    note = None
    if budget[0] == "sample":
        note = "binomial sampling; uncertainty ~ sqrt(p(1-p)/N) per degree"
    agg = EstimateValue(total_smooth, total_all, note)
    return DensityReport("estimated", agg,
                         HypothesisCheck("unknown"),
                         per_degree=tuple(per_degree),
                         flags=tuple(dict.fromkeys(flags)))


def estimate_sing_dist(problem: SchemeProblem, degrees, budget=("exhaustive",),
                       sing_bound=None, ell_max=3, exact=None, seed=0,
                       cap: int = DEFAULT_CAP) -> SingDistReport:
    """Histogram of ell(f) = total degree of singular points found at
    degree <= B; candidates whose singularities exceed the classification
    capacity (ell > ell_max, f = 0, or scan-clean candidates the exact-mode
    certificate shows singular) land in the overflow bin."""
    degrees = list(degrees)
    if sing_bound is None:
        sing_bound = default_sing_bound(problem)
    if exact is None:
        exact = _default_exact(problem, budget, degrees)
    per_degree = []
    agg = {}
    agg_total = 0
    flags = []
    for d in degrees:
        res = _run_scan(problem, d, budget, sing_bound, exact, seed, cap)
        hist = {}
        hist["0"] = res.smooth_count
        over = res.unresolved
        for ell, cnt in res.ell_counts:
            if ell == _INFINITE or ell > ell_max:
                over += cnt
            else:
                hist[str(ell)] = hist.get(str(ell), 0) + cnt
        hist[f">{ell_max}"] = over
        rows = []
        for label in [str(i) for i in range(ell_max + 1)] + [f">{ell_max}"]:
            cnt = hist.get(label, 0)
            rows.append((label, cnt, Fraction(cnt, res.count_total)))
            agg[label] = agg.get(label, 0) + cnt
        agg_total += res.count_total
        per_degree.append((d, tuple(rows)))
        flags.extend(res.flags)
    entries = []
    for label in [str(i) for i in range(ell_max + 1)] + [f">{ell_max}"]:
        cnt = agg.get(label, 0)
        entries.append((label, EstimateValue(cnt, agg_total)))
    return SingDistReport("estimated", tuple(entries), None,
                          tuple(per_degree), tuple(dict.fromkeys(flags)))


def estimate_low_degree(problem: SchemeProblem, r: int, d: int,
                        n_samples: int, seed: int = 0,
                        cap: int = DEFAULT_CAP) -> EstimateValue:
    """Sampled fraction of f in I_d smooth at every point of degree < r."""
    space = candidate_space(problem, d)
    conds = _conditions(problem.X, space,
                        closed_point_arrays(problem.X, r - 1, cap))
    digits = _draws(random.Random(seed), problem.field.q, space.rank,
                    n_samples)
    good = int(np.count_nonzero(_ells(space, conds, digits) == 0))
    note = "binomial sampling; uncertainty ~ sqrt(p(1-p)/N)"
    return EstimateValue(good, n_samples, note)


# ---------------------------------------------------------------------------
# The constructive embedder.

# Draws per chunk of the embedder's walk; those after a winner are redrawn.
_EMBED_CHUNK = 64
# The jet conditions of one degree cost about as much as the point searches
# of one draw per this many points of P^n(F_{q^e_max}), about q^(n e_max):
# 2-7 draws over F_2, 4-8 over F_3, 19-71 over F_4 for the cubics at
# d = 2-4 (64, 729 and 4,096 points).
_SEARCH_POINTS = 64
# Closed points of the curve up to this degree are checked for an
# obstruction before any draw.
_PRECHECK_DEGREE = 3
# A degree's draws: this many times the inverse predicted density.
_TRY_FACTOR = 20


@dataclass(frozen=True)
class EmbedStep:
    degree: int
    poly: MPoly
    certificate: EmptinessCertificate
    tries: int


@dataclass(frozen=True)
class EmbedResult:
    status: str                     # 'success' | 'obstructed'
    steps: tuple = ()
    witness: ClosedPoint | None = None
    witness_e: int | None = None
    tries_per_degree: tuple = ()
    flags: tuple = ()


def embed_curve(problem: SchemeProblem, target_dim: int, d_max: int,
                seed: int = 0, d_min: int = 1, e_max: int = 2,
                cap: int = DEFAULT_CAP) -> EmbedResult:
    """Greedy recursive search for smooth hypersurface sections containing
    the (reduced, user-asserted) curve presented as Z.

    Success returns the chain with fresh emptiness certificates per step;
    a point of local embedding dimension > target_dim up to the precheck
    degree is a certified obstruction.  Exhausting the degree budget
    raises NoSmoothHypersurfaceFound (never a nonexistence claim).
    """
    if problem.Z is None:
        raise MissingProfile("embedding needs the curve presented as Z")
    C = intersection_presentation(problem)
    n = problem.nvars - 1
    for P in enumerate_closed_points(C, _PRECHECK_DEGREE, cap):
        e_p = variety.embedding_dimension(C, P)
        if e_p > target_dim:
            return EmbedResult("obstructed", witness=P, witness_e=e_p)
    if n <= target_dim:
        return EmbedResult("success")
    rng = random.Random(seed)
    steps = []
    tries_log = []
    flags = []
    cur = problem
    for step_index in range(n - target_dim):
        m_cur = _require_dim(cur)
        density = None
        try:
            rep = predict_density(cur, cap=cap)
            if isinstance(rep.value, Fraction) and rep.value > 0:
                density = rep.value
        except (MissingProfile, zeta.InsufficientProfile,
                variety.EnumerationCapExceeded):
            flags.append("no-density-prediction")
        budget_per_degree = (int(_TRY_FACTOR / density) + 1) if density else 200
        listed = []  # X's closed points of degree <= e_max, on first use

        def jet_conditions(space):
            """The jet conditions on `space` at X's closed points of degree
            <= e_max; None where the cap refuses them or X is singular at
            one of them."""
            if not listed:
                try:
                    listed.append(closed_point_arrays(cur.X, e_max, cap))
                except (variety.EnumerationCapExceeded,
                        gf.EnumerationCapError):
                    listed.append(None)
            if listed[0] is not None:
                try:
                    return _conditions(cur.X, space, listed[0])
                except UnsupportedPresentation:  # X singular at a point
                    listed[0] = None
            return None

        found = None
        for d in range(d_min, d_max + 1):
            space = candidate_space(cur, d)
            if space.rank == 0:
                tries_log.append((step_index, d, 0))
                continue
            budget = min(budget_per_degree, problem.field.q ** space.rank)
            found, tries = _walk(cur, space, budget, rng, jet_conditions,
                                 e_max)
            tries_log.append((step_index, d, tries))
            if found:
                break
        if not found:
            raise NoSmoothHypersurfaceFound(d_max, tuple(tries_log))
        steps.append(found)
        new_x = SchemePresentation(problem.field, problem.nvars,
                                   cur.X.equations + (found.poly,),
                                   cur.X.removed, m_cur - 1)
        cur = SchemeProblem(problem.field, problem.nvars, problem.aliases,
                            new_x, problem.Z, problem.stratum_dims)
    return EmbedResult("success", tuple(steps),
                       tries_per_degree=tuple(tries_log),
                       flags=tuple(dict.fromkeys(flags)))


def _walk(problem, space, budget, rng, jet_conditions, e_max):
    """(EmbedStep or None, tries): the first of up to `budget` draws that
    `_empty_on_open` certifies; a zero or repeated draw is a skipped try.
    The first draws take the per-draw point search, as many as the jet
    conditions cost (`_SEARCH_POINTS`), so a short walk builds none.  A
    walk that goes on builds `jet_conditions(space)` (X smooth at their
    points) and classifies `_EMBED_CHUNK` draws at a time: a draw they
    call singular has a point of V(J) and is rejected, and the rest skip
    the point search: on a complete intersection it rejects no others,
    and the graded test passes no V(J) with a point off the removed
    locus.  The rng is left just past the winner."""
    spec, X = problem.field, problem.X
    searched = spec.q ** ((problem.nvars - 1) * e_max) // _SEARCH_POINTS + 1
    seen = set()
    tries = 0
    conds = None
    while tries < budget:
        if tries == searched:
            conds = jet_conditions(space)
        state = rng.getstate()
        digits = _draws(rng, spec.q, space.rank, min(
            _EMBED_CHUNK if tries else searched, budget - tries))
        ells = None if conds is None else _ells(space, conds, digits)
        for i, row in enumerate(digits):
            tries += 1
            cand = _index_of(row, spec.p)
            if not cand or cand in seen:
                continue
            seen.add(cand)
            if ells is not None and ells[i]:
                continue
            f = space.poly_of(cand)
            J = GradedIdeal(spec, problem.nvars, _jacobian_ideal_polys(
                list(X.equations) + [f], spec, problem.nvars))
            cert = _empty_on_open(J, X.removed,
                                  e_max=e_max if ells is None else 0)
            if cert.status == "empty":
                rng.setstate(state)
                _draws(rng, spec.q, space.rank, i + 1)
                return EmbedStep(space.d, f, cert, tries), tries
    return None, tries


def verify_chain(problem: SchemeProblem, result: EmbedResult,
                 e_max: int = 4) -> bool:
    """Re-verify an embedding chain from scratch: ideal containment of the
    curve in every hypersurface, plus a fresh emptiness certificate and an
    independent point search for singular points of each partial chain."""
    if result.status != "success":
        return False
    zideal = GradedIdeal(problem.field, problem.nvars, problem.Z.equations)
    chain = []
    for step in result.steps:
        if not zideal.contains(step.poly):
            return False
        chain.append(step.poly)
        gens = _jacobian_ideal_polys(list(problem.X.equations) + chain,
                                     problem.field, problem.nvars)
        J = GradedIdeal(problem.field, problem.nvars, gens)
        cert = _empty_on_open(J, problem.X.removed, e_max=e_max)
        if cert.status != "empty":
            return False
    return True
