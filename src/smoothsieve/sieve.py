"""Executable forms of the zeta-product density results: exact
predictors for smooth hypersurface sections through a subscheme, the
singularity-count distribution, empirical estimators over F_q, and the
constructive curve embedder.

The estimators' hot path (exhaustive scans over F_2 coefficient spaces)
runs on numpy bit-parallel kernels: the 2-jet vanishing condition at a
closed point is F_2-linear in the candidate's coefficients, so each
point contributes a handful of parity masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import gf, linalg, variety, zeta
from .graded import EmptinessCertificate, GradedIdeal
from .mpoly import (MPoly, monomial_index, monomials_of_degree,
                    normalized_projective_points)
from .variety import (ClosedPoint, SchemePresentation, SchemeProblem,
                      enumerate_closed_points, stratify)

DEFAULT_CAP = variety.DEFAULT_CAP


class MissingProfile(ValueError):
    """A required exact count profile could not be established."""


class UnsupportedPresentation(ValueError):
    """exact mode needs X = P^n, P^n minus a closed set, or a complete
    intersection presentation."""


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


def complement_presentation(problem: SchemeProblem) -> SchemePresentation:
    """X - V as a quasi-projective presentation."""
    X = problem.X
    if problem.Z is None:
        return X
    v_eqs = problem.Z.equations
    if not v_eqs:
        # Z is all of P^n, so X - V is empty; remove everything
        v_eqs = (MPoly.constant(problem.field, problem.nvars, 1),)
    if X.removed:
        removed = tuple(w * v for w in X.removed for v in v_eqs)
    else:
        removed = tuple(v_eqs)
    return SchemePresentation(problem.field, problem.nvars, X.equations,
                              removed, X.declared_dim)


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
        if not table.strata and V.equations:
            ideal = GradedIdeal(problem.field, problem.nvars, V.equations)
            cert = ideal.is_projectively_empty(e_max=1)
            if cert.status != "empty":
                flags.append("no-low-degree-points")
        check = _hypothesis(table, m)
        if check.status == "violated":
            return DensityReport("predicted", Fraction(0), check, (),
                                 flags=tuple(flags))
        factors = []
        xmv = complement_presentation(problem)
        prof = zeta.profile_from_scheme(replace(xmv, declared_dim=m), b, cap)
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
    finite product of the per-point Euler factors."""
    m = _require_dim(problem)
    q = problem.field.q
    value = Fraction(1)
    if r <= 1:
        return value
    V = intersection_presentation(problem)
    if V is not None:
        table = stratify(V, r - 1, problem.dims, cap)
        for e in table.nonempty_values():
            s = m - e
            for P in table.strata[e].points:
                if s <= 0:
                    return Fraction(0)
                value *= 1 - Fraction(1, q ** (s * P.degree))
    xmv = complement_presentation(problem)
    for P in enumerate_closed_points(xmv, r - 1, cap):
        value *= 1 - Fraction(1, q ** ((m + 1) * P.degree))
    return value


# ---------------------------------------------------------------------------
# Candidate spaces and linear singularity conditions over F_2.

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

    def bits_of(self, index_bits: int) -> int:
        """Monomial-space coefficient bitset of the candidate (q = 2)."""
        if self.basis_rows is None:
            return index_bits
        f = 0
        m = index_bits
        while m:
            t = (m & -m).bit_length() - 1
            m &= m - 1
            f ^= self.basis_rows[t]
        return f

    def poly_of(self, coords) -> MPoly:
        spec = self.problem.field
        monos = self.monomials
        if spec.q == 2 and isinstance(coords, int):
            terms = {monos[t]: c
                     for t, c in linalg.entries(spec, self.bits_of(coords))}
            return MPoly(spec, self.problem.nvars, terms)
        # generic: coords is a sequence of codes over the basis rows
        acc = {}
        rows = self.basis_rows
        if rows is None:
            rows = [linalg.row(spec, len(monos), [(j, 1)])
                    for j in range(len(monos))]
        for c, row in zip(coords, rows):
            if not c:
                continue
            for t, rc in linalg.entries(spec, row):
                acc[monos[t]] = spec.add(acc.get(monos[t], 0), spec.mul(c, rc))
        return MPoly(spec, self.problem.nvars, acc)


def candidate_space(problem: SchemeProblem, d: int,
                    cap: int = DEFAULT_CAP) -> CandidateSpace:
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


def _x_jacobian_pivots(X: SchemePresentation, point: ClosedPoint):
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
        raise UnsupportedPresentation(
            f"X is not smooth of dimension {m} at {point.rep_strings()}")
    return pivots


def _point_condition_vectors(X: SchemePresentation, point: ClosedPoint, monos):
    """Per-condition vectors over kappa(P), indexed by the monomial basis.

    Conditions: f(P) = 0 together with the components of grad f(P) reduced
    modulo the row space of X's Jacobian at P; their simultaneous vanishing
    says the section X cap H_f is singular at P.
    """
    ext = point.residue
    rep = point.representative
    nvars = X.nvars
    values = [ _monomial_value(m, rep, ext) for m in monos ]
    grads = []
    for j in range(nvars):
        col = []
        for m in monos:
            e_j = m[j] % ext.p
            if m[j] == 0 or e_j == 0:
                col.append(0)
                continue
            shifted = list(m)
            shifted[j] -= 1
            v = _monomial_value(tuple(shifted), rep, ext)
            col.append(ext.mul(v, e_j) if e_j != 1 else v)
        grads.append(col)
    for prow in _x_jacobian_pivots(X, point):
        (pc, _), *rest = linalg.entries(ext, prow)
        lead = grads[pc]
        for j, c in rest:
            grads[j] = [ext.sub(a, ext.mul(c, b)) for a, b in zip(grads[j], lead)]
        grads[pc] = [0] * len(monos)
    conds = [values] + [g for g in grads if any(g)]
    return conds, ext


def _monomial_value(expo, rep, ext):
    v = 1
    for x, n in zip(rep, expo):
        if n:
            if x == 0:
                return 0
            v = ext.mul(v, ext.pow(x, n))
    return v


def _masks_for_point(X, point, monos, basis_rows):
    """Independent F_2 parity masks over candidate index bits (q = 2 only)."""
    conds, ext = _point_condition_vectors(X, point, monos)
    e = ext.k  # bits per value over F_2
    raw = []
    for vec in conds:
        for b in range(e):
            mask = 0
            for i, v in enumerate(vec):
                if (v >> b) & 1:
                    mask |= 1 << i
            if mask:
                raw.append(mask)
    if basis_rows is not None:
        transformed = []
        for mask in raw:
            t = 0
            for tbit, row in enumerate(basis_rows):
                if (row & mask).bit_count() & 1:
                    t |= 1 << tbit
            transformed.append(t)
        raw = transformed
    return linalg.basis(X.spec, raw)


# ---------------------------------------------------------------------------
# Fast projective-emptiness check for hypersurface Jacobian ideals over F_2.

@lru_cache(maxsize=None)
def _fast_cert_context(spec: gf.FieldSpec, nvars: int, d: int):
    assert spec.q == 2
    n = nvars - 1
    if d % spec.p != 0:
        khat = nvars * (d - 2) + 1      # partials are a regular sequence
    else:
        khat = d + n * (d - 2)          # Macaulay-style bound including f
    khat = max(khat, 1)
    monos_d = monomials_of_degree(nvars, d)
    monos_d1 = monomials_of_degree(nvars, d - 1)
    idx_d1 = monomial_index(nvars, d - 1)
    pmap = []
    for j in range(nvars):
        col = []
        for m in monos_d:
            if m[j] % 2 == 1:
                sh = list(m)
                sh[j] -= 1
                col.append(idx_d1[tuple(sh)])
            else:
                col.append(-1)
        pmap.append(tuple(col))
    idx_k = monomial_index(nvars, khat)
    target = len(idx_k)

    def posmap(src_monos, mult_deg):
        out = []
        for mu in monomials_of_degree(nvars, mult_deg):
            out.append(tuple(idx_k[tuple(a + b for a, b in zip(mu, m))]
                             for m in src_monos))
        return tuple(out)

    pm_partial = posmap(monos_d1, khat - (d - 1)) if khat >= d - 1 else ()
    pm_f = posmap(monos_d, khat - d) if khat >= d else ()
    return (khat, target, tuple(pmap), pm_partial, pm_f)


def _fast_cert_smooth(spec, nvars, d, fbits) -> bool:
    """True when the Jacobian ideal of the hypersurface f provably fills
    S_khat (hence is projectively empty); False means undecided here."""
    khat, target, pmap, pm_partial, pm_f = _fast_cert_context(spec, nvars, d)
    partials = []
    for j in range(nvars):
        col = pmap[j]
        pb = 0
        m = fbits
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            t = col[i]
            if t >= 0:
                pb ^= 1 << t
        if pb:
            partials.append(pb)
    def rows():
        for pb in partials:
            for mult in pm_partial:
                row = 0
                m = pb
                while m:
                    i = (m & -m).bit_length() - 1
                    m &= m - 1
                    row |= 1 << mult[i]
                yield row
        for mult in pm_f:
            row = 0
            m = fbits
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                row |= 1 << mult[i]
            yield row

    return linalg.fills(spec, rows(), target)


# Extension degrees the slow certificate searches for a singular point, and
# the largest power w^n tried when proving V(J) lies in the removed locus.
_SLOW_CERT_E_MAX = 3
_RADICAL_POWER_CAP = 6


def _slow_is_smooth(problem, f: MPoly):
    """Full certificate for X cap H_f smooth of dimension dim X - 1."""
    X = problem.X
    if not _exactable(X):
        raise UnsupportedPresentation(
            "exact mode supports X = P^n (minus a closed set) or a "
            "complete intersection presentation")
    gens = _jacobian_ideal_polys(list(X.equations) + [f], problem.field,
                                 problem.nvars)
    J = GradedIdeal(problem.field, problem.nvars, gens)
    return _empty_on_open(J, X.removed, _SLOW_CERT_E_MAX)


def _exactable(X: SchemePresentation) -> bool:
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


def _empty_on_open(J: GradedIdeal, removed, e_max) -> EmptinessCertificate:
    """Emptiness of V(J) outside the removed locus."""
    base = J.spec
    for e in range(1, e_max + 1):
        ext = gf.make_field(base.p, base.k * e)
        for pt in normalized_projective_points(ext, J.nvars):
            if all(g.evaluate_codes(pt, ext) == 0 for g in J.generators):
                if removed and all(w.evaluate_codes(pt, ext) == 0 for w in removed):
                    continue
                return EmptinessCertificate("nonempty", witness=pt,
                                            witness_field=ext)
    direct = J.is_projectively_empty(point_search=False)
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
# X cap H_f found at degree <= B, plus (exact mode) smoothness certificates
# for scan-clean candidates.

_INFINITE = -1  # sentinel ell value for f = 0


@dataclass(frozen=True)
class ScanResult:
    d: int
    count_total: int
    ell_counts: tuple        # ((ell, count), ...), ell >= 1 or _INFINITE
    smooth_count: int
    unresolved: int          # scan-clean but certificate refused to certify
    flags: tuple

    def fraction_smooth(self) -> Fraction:
        return Fraction(self.smooth_count, self.count_total)


@lru_cache(maxsize=8)
def _scan_cached(problem, d, budget, sing_bound, exact, seed, cap):
    return _run_scan(problem, d, budget, sing_bound, exact, seed, cap)


def _run_scan(problem, d, budget, sing_bound, exact, seed, cap):
    spec = problem.field
    space = candidate_space(problem, d, cap)
    flags = list(space.flags)
    X = problem.X
    points = enumerate_closed_points(X, sing_bound, cap)
    monos = space.monomials
    if spec.q == 2:
        conds = [(P.degree, _masks_for_point(X, P, monos, space.basis_rows))
                 for P in points]
    else:
        conds = None
    if budget[0] == "exhaustive":
        total = spec.q ** space.rank
        if total > cap:
            raise variety.EnumerationCapExceeded(
                f"|I_d| = {total} exceeds cap {cap}")
        if spec.q == 2:
            counter, zero_found_idx = _scan_all_f2(space, conds)
        else:
            counter, zero_found_idx = _scan_all_generic(problem, space, points)
    else:
        n_samples = budget[1]
        total = n_samples
        counter, zero_found_idx = _scan_sampled(problem, space, points,
                                                conds, n_samples, seed)
    # resolve scan-clean candidates
    smooth = 0
    unresolved = 0
    if exact:
        if not _exactable(X):
            raise UnsupportedPresentation(
                "exact mode supports X = P^n (minus a closed set) or a "
                "complete intersection presentation")
        fast = (spec.q == 2 and not X.equations and not X.removed)
        for cand in zero_found_idx:
            if fast:
                fbits = space.bits_of(cand) if isinstance(cand, int) else cand
                if _fast_cert_smooth(spec, problem.nvars, d, fbits):
                    smooth += 1
                    continue
            f = space.poly_of(cand)
            cert = _slow_is_smooth(problem, f)
            if cert.status == "empty":
                smooth += 1
            else:
                unresolved += 1
                if cert.status == "inconclusive":
                    flags.append("certificate-inconclusive")
        flags.append("exact-certificates")
    else:
        smooth = len(zero_found_idx)
        flags.append(f"bounded-smoothness:B={sing_bound}")
    return ScanResult(d, total, tuple(sorted(counter.items())), smooth,
                      unresolved, tuple(dict.fromkeys(flags)))


def _scan_all_f2(space, conds):
    """ell totals for every candidate index over F_2.

    Per point, the singular candidates form the kernel of its parity-mask
    matrix; the kernel is enumerated directly (iterated doubling over a
    basis), so the work per point is proportional to the kernel size.
    """
    R = space.rank
    n = 1 << R
    ell = np.zeros(n, dtype=np.int64)
    for degree, masks in conds:
        if not masks:
            ell += degree        # vacuous conditions: singular everywhere
            continue
        if len(masks) == R:
            continue             # kernel = {0}; only f = 0, handled below
        basis = linalg.kernel(space.problem.field, masks, R)
        members = np.zeros(1, dtype=np.int64)
        for b in basis:
            members = np.concatenate([members, members ^ np.int64(b)])
        ell[members] += degree   # members are distinct within one point
    body = ell[1:]  # candidate 0 is f = 0, classified separately
    vals, cnts = np.unique(body[body > 0], return_counts=True)
    counter = {int(v): int(c) for v, c in zip(vals, cnts)}
    counter[_INFINITE] = counter.get(_INFINITE, 0) + 1  # f = 0
    zero_found = (np.nonzero(body == 0)[0] + 1).tolist()
    return counter, zero_found


def _scan_sampled(problem, space, points, conds, n_samples, seed):
    spec = problem.field
    rng = random.Random(seed)
    counter = {}
    zero_found = []
    R = space.rank
    for _ in range(n_samples):
        if spec.q == 2:
            cand = rng.getrandbits(R) if R else 0
            if cand == 0:
                counter[_INFINITE] = counter.get(_INFINITE, 0) + 1
                continue
            total = 0
            for degree, masks in conds:
                if all(((cand & m).bit_count() & 1) == 0 for m in masks):
                    total += degree
            if total:
                counter[total] = counter.get(total, 0) + 1
            else:
                zero_found.append(cand)
        else:
            coords = tuple(rng.randrange(spec.q) for _ in range(R))
            f = space.poly_of(coords)
            if not f:
                counter[_INFINITE] = counter.get(_INFINITE, 0) + 1
                continue
            total = _ell_found_generic(problem.X, f, points)
            if total:
                counter[total] = counter.get(total, 0) + 1
            else:
                zero_found.append(coords)
    return counter, zero_found


def _scan_all_generic(problem, space, points):
    spec = problem.field
    counter = {}
    zero_found = []
    for coords in product(range(spec.q), repeat=space.rank):
        f = space.poly_of(coords)
        if not f:
            counter[_INFINITE] = counter.get(_INFINITE, 0) + 1
            continue
        total = _ell_found_generic(problem.X, f, points)
        if total:
            counter[total] = counter.get(total, 0) + 1
        else:
            zero_found.append(coords)
    return counter, zero_found


def _ell_found_generic(X, f, points):
    total = 0
    for P in points:
        if f.evaluate_codes(P.representative, P.residue) != 0:
            continue
        if _singular_at(X, f, P):
            total += P.degree
    return total


def _singular_at(X, f, P):
    conds, ext = _point_condition_vectors(X, P, tuple(f.terms.keys()))
    coeffs = list(f.terms.values())
    emap = gf.embed_map(f.spec, ext)
    for vec in conds:
        acc = 0
        for c, v in zip(coeffs, vec):
            if v:
                acc = ext.add(acc, ext.mul(emap[c], v))
        if acc != 0:
            return False
    return True


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
        res = _scan_cached(problem, d, tuple(budget), sing_bound, exact, seed,
                           cap)
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
    capacity (ell > ell_max, f = 0, or uncertified scan-clean candidates in
    exact mode) land in the overflow bin."""
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
        res = _scan_cached(problem, d, tuple(budget), sing_bound, exact, seed,
                           cap)
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
    spec = problem.field
    space = candidate_space(problem, d, cap)
    points = enumerate_closed_points(problem.X, r - 1, cap) if r > 1 else []
    rng = random.Random(seed)
    good = 0
    if spec.q == 2:
        conds = [(P.degree, _masks_for_point(problem.X, P, space.monomials,
                                             space.basis_rows))
                 for P in points]
        for _ in range(n_samples):
            cand = rng.getrandbits(space.rank) if space.rank else 0
            if cand == 0:
                if not conds:
                    good += 1
                continue
            smooth = True
            for degree, masks in conds:
                if all(((cand & m).bit_count() & 1) == 0 for m in masks):
                    smooth = False
                    break
            if smooth:
                good += 1
    else:
        for _ in range(n_samples):
            coords = tuple(rng.randrange(spec.q) for _ in range(space.rank))
            f = space.poly_of(coords)
            if not f:
                if points:
                    continue
                good += 1
                continue
            if not any(_singular_at(problem.X, f, P) for P in points):
                good += 1
    note = "binomial sampling; uncertainty ~ sqrt(p(1-p)/N)"
    return EstimateValue(good, n_samples, note)


# ---------------------------------------------------------------------------
# The constructive embedder.

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

    def chain_polys(self):
        return [s.poly for s in self.steps]


def embed_curve(problem: SchemeProblem, target_dim: int, d_max: int,
                seed: int = 0, d_min: int = 1, precheck_degree: int = 3,
                try_factor: int = 20, e_max: int = 2,
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
    for P in enumerate_closed_points(C, precheck_degree, cap):
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
        budget_per_degree = (int(try_factor / density) + 1) if density else 200
        found = None
        for d in range(d_min, d_max + 1):
            space = candidate_space(cur, d, cap)
            if space.rank == 0:
                tries_log.append((step_index, d, 0))
                continue
            tries = 0
            budget = min(budget_per_degree, problem.field.q ** space.rank)
            seen = set()
            while tries < budget:
                if problem.field.q == 2:
                    cand = rng.getrandbits(space.rank)
                else:
                    cand = tuple(rng.randrange(problem.field.q)
                                 for _ in range(space.rank))
                if not cand or cand in seen:
                    tries += 1
                    continue
                seen.add(cand)
                tries += 1
                f = space.poly_of(cand)
                if not f:
                    continue
                chain_eqs = list(cur.X.equations) + [f]
                gens = _jacobian_ideal_polys(chain_eqs, problem.field,
                                             problem.nvars)
                J = GradedIdeal(problem.field, problem.nvars, gens)
                cert = _empty_on_open(J, cur.X.removed, e_max=e_max)
                if cert.status == "empty":
                    found = EmbedStep(d, f, cert, tries)
                    break
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


def verify_chain(problem: SchemeProblem, result: EmbedResult,
                 e_max: int = 4, cap: int = DEFAULT_CAP) -> bool:
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
