"""Closed points of quasi-projective schemes over F_q: enumeration by
Frobenius orbits, Jacobian smoothness tests, local embedding dimension,
and the stratification of a subscheme by embedding dimension.

Also owns the plain-text scheme file format (see `parse_problem`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf, linalg, mpoly
from .gf import FieldSpec
from .graded import GradedIdeal, poly_to_vector
from .mpoly import projective_point_count


class EnumerationCapExceeded(gf.SmoothsieveError):
    pass


class PointNotOnScheme(gf.SmoothsieveError):
    pass


class SchemeFileError(gf.SmoothsieveError):
    pass


DEFAULT_CAP = gf.ENUMERATION_CAP


@dataclass(frozen=True)
class SchemePresentation:
    """Ambient P^n plus homogeneous equations; quasi-projective when
    `removed` is nonempty (the common zero locus of `removed` is taken out).
    """
    spec: FieldSpec
    nvars: int
    equations: tuple = ()
    removed: tuple = ()
    declared_dim: int | None = None

    @property
    def ambient_dim(self):
        return self.nvars - 1

    def dim(self):
        """Declared dimension; an equation-free presentation is all of P^n."""
        if self.declared_dim is not None:
            return self.declared_dim
        if not self.equations:
            return self.ambient_dim
        return None

    def is_free_ambient(self):
        return not self.equations and not self.removed


@dataclass(frozen=True)
class ClosedPoint:
    """A Frobenius orbit of geometric points; degree = orbit size."""
    degree: int
    residue: FieldSpec
    orbit: tuple
    representative: tuple

    def chart(self) -> int:
        return next(i for i, c in enumerate(self.representative) if c)

    def rep_strings(self):
        return tuple(self.residue.element_string(c) for c in self.representative)


@dataclass
class Stratum:
    e: int
    counts: dict            # degree -> number of closed points (a_d)
    dim_estimate: int | None
    dim_source: str         # 'declared' | 'heuristic' | 'empty'


@dataclass
class StratumTable:
    strata: dict            # e -> Stratum
    flags: tuple = ()

    def nonempty_values(self):
        return sorted(e for e, s in self.strata.items() if s.counts)


# ---------------------------------------------------------------------------
# Point enumeration.

def check_enumeration_cap(scheme: SchemePresentation, degrees,
                          cap: int = DEFAULT_CAP) -> None:
    """Refuse, before any point is enumerated, if P^n(F_{q^e}) is over the
    cap for some e in `degrees`; the message names the first such e."""
    for e in degrees:
        q_e = scheme.spec.q ** e
        total = projective_point_count(q_e, scheme.ambient_dim)
        if total > cap or q_e > cap:
            raise EnumerationCapExceeded(
                f"P^{scheme.ambient_dim}(F_{q_e}) has {total} points (cap {cap})")


def raw_point_count(scheme: SchemePresentation, e: int, cap: int = DEFAULT_CAP) -> int:
    """|scheme(F_{q^e})| by a normalized scan of the zero locus; with no
    equations, |P^n(F_{q^e})| minus the points of the removed locus."""
    base = scheme.spec
    total = projective_point_count(base.q ** e, scheme.ambient_dim)
    if scheme.is_free_ambient():
        return total
    check_enumeration_cap(scheme, [e], cap)
    ext = gf.make_field(base.p, base.k * e)
    if not scheme.equations:
        return total - sum(len(rows) for rows in mpoly.zero_locus_points(
            scheme.removed, (), ext, scheme.nvars))
    return sum(len(rows) for rows in mpoly.zero_locus_points(
        scheme.equations, scheme.removed, ext, scheme.nvars))


def closed_point_arrays(scheme: SchemePresentation, max_degree: int,
                        cap: int = DEFAULT_CAP):
    """[(e, kappa, orbits)] for e = 1..max_degree, refused by the cap before
    any point is enumerated: the closed points of degree e as one code
    array of shape (points, e, nvars), sorted by representative, each
    orbit's members sorted, so the representative comes first."""
    base = scheme.spec
    check_enumeration_cap(scheme, range(1, max_degree + 1), cap)
    out = []
    for e in range(1, max_degree + 1):
        ext = gf.make_field(base.p, base.k * e)
        out.append((e, ext, _closed_points_of_degree(scheme, ext, e)))
    return out


def enumerate_closed_points(scheme: SchemePresentation, max_degree: int,
                            cap: int = DEFAULT_CAP) -> list[ClosedPoint]:
    """Every closed point of degree <= max_degree, exactly once, grouped
    into Frobenius orbits, ordered by (degree, representative)."""
    return [ClosedPoint(e, ext, tuple(map(tuple, orbit)), tuple(orbit[0]))
            for e, ext, orbits in closed_point_arrays(scheme, max_degree, cap)
            for orbit in orbits.tolist()]


def _closed_points_of_degree(scheme, ext, e):
    """The orbits of the closed points of degree e, sorted by
    representative, as an int64 array of shape (points, e, nvars).

    A point's key sum_i c_i Q^(n-i) orders code rows as tuples.  A row is
    kept when each of its e - 1 images under the q-power Frobenius has a
    larger key: then its orbit has exactly e members and it is the least
    one, so every closed point of degree e is listed once.
    """
    arith = gf.code_arrays(ext)
    q = scheme.spec.q
    place = ext.q ** np.arange(scheme.nvars - 1, -1, -1, dtype=np.int64)
    orbits, keys = [], []
    for rows in mpoly.zero_locus_points(scheme.equations, scheme.removed,
                                        ext, scheme.nvars):
        key = rows @ place
        orbit = [rows]
        for _ in range(e - 1):
            image = arith.pow(orbit[-1], q)
            keep = image @ place > key
            key = key[keep]
            orbit = [member[keep] for member in orbit] + [image[keep]]
        orbits.append(np.stack(orbit, axis=1))
        keys.append(key)
    if not orbits:
        return np.zeros((0, e, scheme.nvars), dtype=np.int64)
    orbits = np.concatenate(orbits)[np.argsort(np.concatenate(keys))]
    return np.take_along_axis(
        orbits, np.argsort(orbits @ place, axis=1)[:, :, None], axis=1)


def mobius(n: int) -> int:
    out = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    if n > 1:
        out = -out
    return out


# ---------------------------------------------------------------------------
# Point counts N_e = |X(F_{q^e})| and closed-point counts a_d, related by
# N_e = sum_{d | e} d a_d.

def closed_point_counts(n_values) -> tuple:
    """a_1..a_b from N_1..N_b by Moebius inversion."""
    out = []
    for d in range(1, len(n_values) + 1):
        total = sum(mobius(d // e) * n_values[e - 1]
                    for e in range(1, d + 1) if d % e == 0)
        assert total % d == 0
        out.append(total // d)
    return tuple(out)


def point_counts(a) -> list:
    """N_1..N_b from a_1..a_b."""
    return [sum(d * a[d - 1] for d in range(1, e + 1) if e % d == 0)
            for e in range(1, len(a) + 1)]


def growth_dimension(n_e: int, e: int, q: int) -> int:
    """Nearest integer to log_q(N_e)/e in exact arithmetic: the k with
    q^{e(2k-1)} <= N_e^2 < q^{e(2k+1)}."""
    k = 0
    sq = n_e * n_e
    while q ** (e * (2 * k + 1)) <= sq:
        k += 1
    return k


def dimension_guess(n_values, q: int) -> int | None:
    """The growth dimension of the last nonzero N_e (N_e ~ q^{dim e});
    None, standing in for the empty scheme's dimension of -infinity, when
    every N_e is 0."""
    for e in range(len(n_values), 0, -1):
        if n_values[e - 1]:
            return growth_dimension(n_values[e - 1], e, q)
    return None


# ---------------------------------------------------------------------------
# Smoothness and local embedding dimension.

def _jacobian_rank_at(equations, point: ClosedPoint, chart: int | None = None) -> int:
    """Rank over kappa(P) of the affine Jacobian at the representative."""
    ext = point.residue
    rep = point.representative
    if chart is None:
        chart = point.chart()
    elif rep[chart] == 0:
        raise ValueError("chart coordinate vanishes at the point")
    if rep[chart] != 1:
        scale = ext.inv(rep[chart])
        rep = tuple(ext.mul(scale, c) for c in rep)
    cols = [i for i in range(len(rep)) if i != chart]
    rows = []
    for eq in equations:
        deh = eq.dehomogenize(chart)
        rows.append(linalg.row(ext, len(cols), (
            (j, deh.partial(i).evaluate_codes(rep, ext))
            for j, i in enumerate(cols))))
    return linalg.rank(ext, rows)


def _require_on_scheme(equations, removed, point: ClosedPoint):
    ext = point.residue
    rep = point.representative
    if any(e.evaluate_codes(rep, ext) != 0 for e in equations):
        raise PointNotOnScheme(f"point {point.rep_strings()} is off the scheme")
    if removed and all(r.evaluate_codes(rep, ext) == 0 for r in removed):
        raise PointNotOnScheme(f"point {point.rep_strings()} lies in the removed locus")


@lru_cache(maxsize=32)
def effective_generators(V: SchemePresentation):
    """Generators augmented by low-degree saturation, with an honesty flag.

    Returns (generators, flag); flag 'capped' marks a saturation search
    that hit its cap, leaving e(P) a possible overestimate.
    """
    if not V.equations:
        return V.equations, "stable"
    ideal = GradedIdeal(V.spec, V.nvars, V.equations)
    max_d = max(g.homogeneous_degree() for g in V.equations) + 2
    gens = list(V.equations)
    flag = "stable"
    for d in range(1, max_d + 1):
        sat, sflag = ideal.saturated_piece(d)
        if sflag == "capped":
            flag = "capped"
        if sat.rank > ideal.piece(d).rank:
            known = GradedIdeal(V.spec, V.nvars, gens)
            for g in sat.to_polys(V.nvars):
                if not known.piece(d).contains_vector(poly_to_vector(g, d)):
                    gens.append(g)
                    known = GradedIdeal(V.spec, V.nvars, gens)
    return tuple(gens), flag


def embedding_dimension(V: SchemePresentation, point: ClosedPoint) -> int:
    """e(P) = n - rank of the Jacobian of the (saturation-augmented)
    presentation of V at P; the dimension of the Zariski tangent space."""
    gens, _ = effective_generators(V)
    _require_on_scheme(V.equations, V.removed, point)
    return V.ambient_dim - _jacobian_rank_at(gens, point)


def stratify(V: SchemePresentation, max_degree: int,
             declared_dims: dict | None = None,
             cap: int = DEFAULT_CAP) -> StratumTable:
    """Count the closed points of degree <= B in each stratum V_e."""
    declared_dims = declared_dims or {}
    points = enumerate_closed_points(V, max_degree, cap)
    flags = (["saturation-capped"]
             if points and effective_generators(V)[1] == "capped" else [])
    grouped: dict[int, dict] = {}
    for P in points:
        e = embedding_dimension(V, P)
        counts = grouped.setdefault(e, {})
        counts[P.degree] = counts.get(P.degree, 0) + 1
    strata = {}
    for e, counts in sorted(grouped.items()):
        if e in declared_dims:
            dim_e, source = declared_dims[e], "declared"
        else:
            a = [counts.get(d, 0) for d in range(1, max_degree + 1)]
            dim_e = dimension_guess(point_counts(a), V.spec.q)
            source = "heuristic"
            flags.append(f"heuristic-dim:V_{e}")
        strata[e] = Stratum(e, counts, dim_e, source)
    for e, dim_e in declared_dims.items():
        if e not in strata:
            strata[e] = Stratum(e, {}, dim_e, "declared")
    return StratumTable(strata, tuple(flags))


# ---------------------------------------------------------------------------
# Scheme problem files.
#
#   # comment
#   q = 2              (or q = p^k, optionally followed by [modulus in g or x])
#   P 3 : x y z w
#   X:
#     <polynomial per line>
#   X.remove:
#     <polynomial per line>
#   Z:
#     <polynomial per line>
#   dim X = 3
#   dim V_1 = 1

@dataclass(frozen=True)
class SchemeProblem:
    field: FieldSpec
    nvars: int
    aliases: tuple
    X: SchemePresentation
    Z: SchemePresentation | None
    stratum_dims: tuple = ()    # ((e, dim), ...)

    @property
    def dims(self):
        return dict(self.stratum_dims)


def parse_problem(text: str, q_override: int | None = None) -> SchemeProblem:
    lines = [ln.rstrip() for ln in text.splitlines()]
    q_spec = None
    nvars = None
    aliases = None
    sections = {"X": [], "X.remove": [], "Z": []}
    seen_sections = set()
    dim_x = None
    stratum_dims = {}
    current = None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        low = line.replace(" ", "")
        if low.startswith("q="):
            q_spec = _parse_field_line(line, q_override)
            current = None
        elif line.startswith("P ") or line.startswith("P\t"):
            body = line[1:].strip()
            if ":" in body:
                npart, apart = body.split(":", 1)
                aliases = tuple(apart.replace(",", " ").split())
            else:
                npart, aliases = body, None
            n = _integer(npart)
            if n < 0:
                raise SchemeFileError(f"P {n}: the dimension must be >= 0")
            nvars = n + 1
            if aliases is None:
                aliases = mpoly.default_aliases(nvars)
            if len(aliases) != nvars:
                raise SchemeFileError(
                    f"expected {nvars} variable aliases, got {len(aliases)}")
            if len(set(aliases)) != nvars:
                raise SchemeFileError(f"repeated variable alias in {aliases}")
            current = None
        elif low.startswith("dimX="):
            dim_x = _integer(line.split("=", 1)[1])
            current = None
        elif low.startswith("dimV_"):
            head, val = low.split("=", 1)
            e = _integer(head[len("dimV_"):])
            stratum_dims[e] = _integer(val)
            current = None
        elif ":" in line and line.split(":", 1)[0].strip() in sections:
            current, rest = (part.strip() for part in line.split(":", 1))
            seen_sections.add(current)
            if rest:
                sections[current].extend(p.strip() for p in rest.split(";")
                                         if p.strip())
        elif current is not None:
            sections[current].extend(p.strip() for p in line.split(";") if p.strip())
        else:
            raise SchemeFileError(f"cannot parse line: {raw!r}")
    if q_spec is None:
        raise SchemeFileError("missing field line 'q = ...'")
    if nvars is None:
        raise SchemeFileError("missing ambient line 'P n : aliases'")

    def polys(names):
        return tuple(mpoly.parse_homogeneous(s, q_spec, nvars, aliases)
                     for s in names)

    x_eqs = polys(sections["X"])
    x_rm = polys(sections["X.remove"])
    X = SchemePresentation(q_spec, nvars, x_eqs, x_rm,
                           declared_dim=dim_x)
    if dim_x is not None:
        _validate_declared_dim(X)
    Z = None
    if "Z" in seen_sections:
        Z = SchemePresentation(q_spec, nvars, polys(sections["Z"]))
    return SchemeProblem(q_spec, nvars, tuple(aliases), X, Z,
                         tuple(sorted(stratum_dims.items())))


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SchemeFileError(
            f"expected an integer, got {text.strip()!r}") from None


def _validate_declared_dim(X: SchemePresentation, e: int = 2):
    """Warn (never error) when the declared dimension disagrees with the
    point-count growth rate; skipped when the check itself would be big."""
    import warnings
    q_e = X.spec.q ** e
    if projective_point_count(q_e, X.ambient_dim) > 1 << 20:
        return
    try:
        n_e = raw_point_count(X, e)
    except EnumerationCapExceeded:
        return
    if n_e == 0:
        return
    grown = growth_dimension(n_e, e, X.spec.q)
    if grown != X.declared_dim:
        warnings.warn(
            f"declared dim X = {X.declared_dim} but point counts grow like "
            f"dimension {grown}", stacklevel=2)


def _parse_field_line(line: str, q_override: int | None) -> FieldSpec:
    body = line.split("=", 1)[1].strip()
    modulus = None
    if "[" in body:
        body, modpart = body.split("[", 1)
        modpart = modpart.rstrip("]").strip()
        body = body.strip()
    else:
        modpart = None
    if "^" in body:
        p_s, _, k_s = body.partition("^")
        p, k = _integer(p_s), _integer(k_s)
    else:
        q = _integer(body)
        p, k = _factor_prime_power(q)
    if q_override is not None:
        p, k = _factor_prime_power(q_override)
        modpart = None
    spec = gf.make_field(p, k)
    if modpart is not None:
        coeffs = _parse_modulus(modpart, p, k)
        spec = gf.make_field(p, k, coeffs)
    return spec


def _factor_prime_power(q: int):
    if q < 2:
        raise SchemeFileError(f"q = {q} is not a prime power")
    p = next(f for f in range(2, q + 1) if q % f == 0)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise SchemeFileError(f"q = {q} is not a prime power")
    return p, k


def _parse_modulus(text: str, p: int, k: int):
    """The coefficients, constant first, of a modulus written as a
    polynomial over F_p in `g` or `x` (either, or both): each term counts at
    its total degree."""
    try:
        f = mpoly.parse_poly(text, gf.make_field(p), 2, ("g", "x"))
    except mpoly.ParseError as err:
        raise SchemeFileError(f"bad modulus {text!r}: {err}") from None
    coeffs = [0] * (k + 1)
    for (i, j), c in f.terms.items():
        if i + j > k:
            raise SchemeFileError("modulus degree too large")
        coeffs[i + j] = (coeffs[i + j] + c) % p
    return tuple(coeffs)


def load_problem(path, q_override: int | None = None) -> SchemeProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), q_override)
