"""Zeta machinery: point-count profiles, exact rational special values
from polynomial profiles, truncated Euler products with flagged tail
brackets, and the decomposition by number of supporting geometric points.

Everything exact is a Fraction; no floating point in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import gf, variety
from .variety import (SchemePresentation, closed_point_counts,
                      dimension_guess, point_counts)


class DivergentArgument(gf.SmoothsieveError):
    """Special value requested at or below the dimension pole."""


class InsufficientProfile(gf.SmoothsieveError):
    """Profile lacks exact degree counts needed for the request."""


@dataclass(frozen=True)
class CountProfile:
    """Closed-point degree counts of a scheme over F_q.

    `a` holds enumerated counts a_d for d <= b_max; `poly` (when present)
    is an integer Laurent polynomial ((coeff, power), ...) with
    N_e = sum coeff * (q**power)**e, validated against the enumerated
    counts.  A polynomial view makes every a_d available exactly.
    """
    q: int
    dim: int | None
    a: tuple = ()           # a[d-1] = number of closed points of degree d
    poly: tuple | None = None
    flags: tuple = ()

    @property
    def b_max(self):
        return len(self.a)

    def __post_init__(self):
        if self.poly is not None:
            if any(n < 0 for n in self.poly_counts(max(self.b_max, 3))):
                raise ValueError("polynomial profile takes negative values")
            if self.poly_counts(self.b_max) != point_counts(self.a):
                raise ValueError("polynomial profile contradicts counts")

    def poly_counts(self, b: int) -> list:
        """N_1..N_b from the polynomial view."""
        return [sum(c * (self.q ** j) ** e for c, j in self.poly)
                for e in range(1, b + 1)]

    def a_d(self, d: int) -> int:
        if d <= self.b_max:
            return self.a[d - 1]
        if self.poly is None:
            raise InsufficientProfile(
                f"a_{d} not enumerated (b_max = {self.b_max}) and no polynomial view")
        return closed_point_counts(self.poly_counts(d))[d - 1]

    def exact_through(self, d: int) -> bool:
        return self.poly is not None or d <= self.b_max

    def is_empty(self) -> bool:
        if self.poly is not None:
            return not self.poly
        return not any(self.a)

    def effective_dim(self):
        if self.poly is not None:
            live = [b for c, b in self.poly if c]
            return max(live) if live else None   # None = empty, dim -inf
        if self.dim is not None:
            return self.dim
        return None

    def to_json_dict(self):
        out = {"q": self.q, "dim": self.dim, "a": list(self.a)}
        if self.poly is not None:
            out["poly"] = [[c, b] for c, b in self.poly]
        if self.flags:
            out["flags"] = list(self.flags)
        return out


@dataclass(frozen=True)
class ZetaValue:
    """Special value at integer s: exact when available, else a bracket."""
    s: int
    exact: Fraction | None
    lower: Fraction
    upper: Fraction | None
    flags: tuple = ()

    def to_json_dict(self):
        out = {"s": self.s}
        if self.exact is not None:
            out["exact"] = str(self.exact)
            out["approx"] = float(self.exact)
        else:
            out["lower"] = str(self.lower)
            out["upper"] = str(self.upper) if self.upper is not None else None
            out["approx"] = float(self.lower)
        if self.flags:
            out["flags"] = list(self.flags)
        return out


# ---------------------------------------------------------------------------

def fit_count_polynomial(n_values: list[int], q: int, degree: int):
    """Integer polynomial in x = q^e through N_1..N_{degree+1}, validated
    against every remaining supplied count; None when no exact fit exists."""
    if len(n_values) < degree + 2:
        return None
    k = degree + 1
    rows = [[Fraction(q ** (j * e)) for j in range(k)] + [Fraction(n_values[e - 1])]
            for e in range(1, k + 1)]
    # Gaussian elimination over Q
    for c in range(k):
        piv = next((i for i in range(c, k) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(k):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    coeffs = [rows[c][k] for c in range(k)]
    if any(c.denominator != 1 for c in coeffs):
        return None
    poly = tuple((int(c), j) for j, c in enumerate(coeffs) if c)
    for e in range(1, len(n_values) + 1):
        if sum(c * (q ** b) ** e for c, b in poly) != n_values[e - 1]:
            return None
    return poly


def profile_from_scheme(X: SchemePresentation, b: int,
                        cap: int = variety.DEFAULT_CAP) -> CountProfile:
    """Enumerated profile a_1..a_b, with a validated polynomial view when
    the counts admit one of degree <= dim."""
    q = X.spec.q
    if not X.is_free_ambient():
        variety.check_enumeration_cap(X, range(1, b + 1), cap)
    n_values = [variety.raw_point_count(X, e, cap) for e in range(1, b + 1)]
    a = closed_point_counts(n_values)
    if X.is_free_ambient():
        # free P^n: exact polynomial profile, no scanning
        n = X.ambient_dim
        return CountProfile(q, n, a, tuple((1, j) for j in range(n, -1, -1)))
    dim = X.dim()
    flags = ()
    if dim is None:
        dim = dimension_guess(n_values, q)
        flags = ("heuristic-dim",)
    return CountProfile(q, dim, a, _fit(n_values, q, dim), flags)


def profile_from_counts(counts: dict, q: int, dim: int | None,
                        b: int) -> CountProfile:
    """Profile from a {degree: a_d} dict enumerated through degree b."""
    a = tuple(counts.get(d, 0) for d in range(1, b + 1))
    return CountProfile(q, dim, a, _fit(point_counts(a), q, dim))


def _fit(n_values, q, dim):
    """The polynomial view of degree <= dim through the counts; () for
    counts that are all 0, None when there is none."""
    poly = fit_count_polynomial(n_values, q, dim) if dim is not None else None
    if poly is None and not any(n_values):
        poly = ()
    return poly


# ---------------------------------------------------------------------------

def _euler_factor(q: int, s: int, d: int) -> Fraction:
    """(1 - q^{-sd})^{-1} as an exact rational."""
    qe = q ** (s * d)
    return Fraction(qe, qe - 1)


def zeta_value(profile: CountProfile, s: int) -> ZetaValue:
    """Exact rational zeta special value for polynomial profiles; a
    [truncated product, heuristic-tail bound] bracket otherwise."""
    dim = profile.effective_dim()
    if profile.is_empty():
        one = Fraction(1)
        return ZetaValue(s, one, one, one)
    if dim is not None and s <= dim:
        raise DivergentArgument(f"zeta(s={s}) diverges at dimension {dim}")
    q = profile.q
    if profile.poly is not None:
        val = Fraction(1)
        for c, b in profile.poly:
            base = 1 - Fraction(1, q ** (s - b))
            val *= base ** (-c)
        return ZetaValue(s, val, val, val)
    # enumerated-only: bracket with a Lang-Weil style heuristic tail
    lower = Fraction(1)
    for d in range(1, profile.b_max + 1):
        a_d = profile.a[d - 1]
        if a_d:
            lower *= _euler_factor(q, s, d) ** a_d
    if dim is None:
        return ZetaValue(s, None, lower, None,
                         ("heuristic-tail", "no-dimension-no-upper"))
    c_heur = max((Fraction(profile.a[d - 1] * d, q ** (d * dim))
                  for d in range(1, profile.b_max + 1)), default=Fraction(0))
    x = Fraction(1, q ** (s - dim))
    tail = c_heur * x ** (profile.b_max + 1) / (1 - x)
    flags = ("heuristic-tail",)
    if tail >= 1:
        return ZetaValue(s, None, lower, None, flags + ("tail-unbounded",))
    return ZetaValue(s, None, lower, lower / (1 - tail), flags)


def _support_patterns(ell: int):
    """Multiplicity functions {d: m_d >= 1} with sum d*m_d = ell."""

    def rec(remaining, d_min):
        if remaining == 0:
            yield {}
            return
        for d in range(d_min, remaining + 1):
            for m in range(1, remaining // d + 1):
                for rest in rec(remaining - d * m, d + 1):
                    out = {d: m}
                    out.update(rest)
                    yield out

    yield from rec(ell, 1)


def zeta_ell(profile: CountProfile, ell: int, s: int) -> ZetaValue:
    """Exact value of the zeta summand over cycles supported on exactly
    ell geometric points: a closed point of degree d contributes the
    series q^{-sd}/(1-q^{-sd}), and a support with m_d points of degree d
    accounts for binom(a_d, m_d) choices."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    dim = profile.effective_dim()
    if dim is not None and s <= dim:
        raise DivergentArgument(f"zeta(s={s}) diverges at dimension {dim}")
    if ell == 0:
        one = Fraction(1)
        return ZetaValue(s, one, one, one)
    if not profile.exact_through(ell):
        raise InsufficientProfile(
            f"need exact counts through degree {ell}, have {profile.b_max}")
    q = profile.q
    total = Fraction(0)
    for pattern in _support_patterns(ell):
        term = Fraction(1)
        for d, m in pattern.items():
            a_d = profile.a_d(d)
            if a_d < m:
                term = Fraction(0)
                break
            u = Fraction(1, q ** (s * d) - 1)
            term *= comb(a_d, m) * u ** m
        total += term
    return ZetaValue(s, total, total, total)
