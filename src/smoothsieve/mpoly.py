"""Sparse homogeneous multivariate polynomials over F_q.

Terms map exponent tuples (length nvars) to nonzero coefficient codes.
Monomial bases are ordered graded-lex with x0 major, so degree-d vectors
index consistently into the linear algebra layer.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from . import gf, linalg
from .gf import FieldMismatchError, FieldSpec


class HomogeneityError(gf.SmoothsieveError):
    """Polynomial is not homogeneous where homogeneity is required."""


class ParseError(gf.SmoothsieveError):
    pass


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, d: int) -> tuple:
    """All exponent tuples of total degree d, graded-lex (x0-major, descending)."""
    if d < 0:
        raise ValueError("degree must be >= 0")

    def comps(total, n):
        if n == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for rest in comps(total - head, n - 1):
                yield (head,) + rest

    return tuple(comps(d, nvars))


@lru_cache(maxsize=None)
def monomial_index(nvars: int, d: int) -> dict:
    return {m: i for i, m in enumerate(monomials_of_degree(nvars, d))}


class MPoly:
    """Immutable sparse polynomial; do not mutate `terms` after creation."""

    __slots__ = ("spec", "nvars", "terms", "_hash")

    def __init__(self, spec: FieldSpec, nvars: int, terms=None):
        self.spec = spec
        self.nvars = nvars
        clean = {}
        if terms:
            for expo, code in terms.items() if isinstance(terms, dict) else terms:
                if len(expo) != nvars:
                    raise ValueError(f"exponent {expo} has wrong arity")
                code = int(code)
                if spec.k == 1:
                    code %= spec.p
                if code:
                    clean[tuple(expo)] = code
        self.terms = clean
        self._hash = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, spec, nvars):
        return cls(spec, nvars, {})

    @classmethod
    def constant(cls, spec, nvars, value):
        code = spec.element(value).code
        return cls(spec, nvars, {(0,) * nvars: code} if code else {})

    @classmethod
    def monomial(cls, spec, nvars, expo, coeff=1):
        code = spec.element(coeff).code
        return cls(spec, nvars, {tuple(expo): code} if code else {})

    @classmethod
    def variable(cls, spec, nvars, i):
        expo = [0] * nvars
        expo[i] = 1
        return cls.monomial(spec, nvars, expo)

    # -- ring structure -------------------------------------------------------

    def _check(self, other):
        if self.spec != other.spec or self.nvars != other.nvars:
            raise FieldMismatchError("polynomials over different rings")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        spec = self.spec
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = spec.add(out.get(e, 0), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(spec, self.nvars, out)

    def __neg__(self):
        spec = self.spec
        return MPoly(spec, self.nvars, {e: spec.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        spec = self.spec
        if isinstance(other, (int, gf.FieldElement)):
            code = spec.element(other).code
            if not code:
                return MPoly.zero(spec, self.nvars)
            return MPoly(spec, self.nvars,
                         {e: spec.mul(c, code) for e, c in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = spec.add(out.get(e, 0), spec.mul(c1, c2))
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly(spec, self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.spec == other.spec
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.spec, self.nvars,
                               tuple(sorted(self.terms.items()))))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"MPoly({self.to_string()})"

    # -- structure queries ------------------------------------------------------

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        if not self.terms:
            return None
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            raise HomogeneityError(f"{self.to_string()} is not homogeneous")
        return degs.pop()

    # -- calculus and evaluation -------------------------------------------------

    def partial(self, i: int) -> "MPoly":
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        spec = self.spec
        out = {}
        for e, c in self.terms.items():
            n = e[i]
            if n == 0:
                continue
            code = spec.mul(c, n % spec.p) if n % spec.p != 1 else c
            if n % spec.p == 0 or not code:
                continue
            ne = list(e)
            ne[i] -= 1
            ne = tuple(ne)
            s = spec.add(out.get(ne, 0), code)
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return MPoly(spec, self.nvars, out)

    def evaluate_codes(self, coords, target: FieldSpec) -> int:
        """Value at a point with coordinate codes in the extension `target`."""
        emap = gf.embed_map(self.spec, target)
        acc = 0
        for e, c in self.terms.items():
            term = emap[c]
            for x, n in zip(coords, e):
                if n:
                    if x == 0:
                        term = 0
                        break
                    term = target.mul(term, target.pow(x, n))
            if term:
                acc = target.add(acc, term)
        return acc

    def evaluate_rows(self, rows, target: FieldSpec):
        """Values at the points given as the rows of an int64 array of
        coordinate codes in the extension `target`: every term from one
        `CodeArrays.monomials` call, summed over its columns."""
        arith = gf.code_arrays(target)
        emap = gf.embed_map(self.spec, target)
        expo = np.array(list(self.terms), dtype=np.int64).reshape(-1, self.nvars)
        coeffs = np.array([emap[c] for c in self.terms.values()], dtype=np.int64)
        return arith.total(arith.monomials(rows, expo, coeffs).T, len(rows))

    def evaluate(self, point) -> gf.FieldElement:
        """Evaluate at a tuple of FieldElements of a common extension field."""
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        target = point[0].spec
        for x in point:
            if x.spec != target:
                raise FieldMismatchError("point coordinates in mixed fields")
        code = self.evaluate_codes([x.code for x in point], target)
        return gf.FieldElement(target, code)

    # -- text form ------------------------------------------------------------

    def to_string(self, aliases=None) -> str:
        if not self.terms:
            return "0"
        aliases = aliases or default_aliases(self.nvars)
        parts = []
        for e in sorted(self.terms, key=lambda t: (-sum(t), tuple(-x for x in t))):
            c = self.terms[e]
            factors = []
            for name, n in zip(aliases, e):
                if n == 1:
                    factors.append(name)
                elif n > 1:
                    factors.append(f"{name}^{n}")
            body = "*".join(factors)
            if not body:
                parts.append(self._coeff_string(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{self._coeff_string(c)}*{body}")
        return " + ".join(parts)

    def _coeff_string(self, code):
        if self.spec.k == 1:
            return str(code)
        return "(" + self.spec.element_string(code) + ")"


def default_aliases(nvars):
    return tuple(f"x{i}" for i in range(nvars))


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^)|(\*)|(\+)|(-)|(\()|(\)))")


def parse_poly(text: str, spec: FieldSpec, nvars: int, aliases=None) -> MPoly:
    """Parse `+`/`-` separated terms; `*` optional between factors, `^` powers.

    Coefficients are integers, or, over non-prime fields, the generator
    symbol `g` and parenthesised field literals such as `(g^2+1)*x*y`: a
    literal is read by this same grammar as a polynomial in `g` over F_p
    and evaluated at the generator.
    """
    aliases = list(aliases or default_aliases(nvars))
    var_index = {a: i for i, a in enumerate(aliases)}
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"bad character at {text[pos:]!r}")
            break
        tokens.append(m)
        pos = m.end()

    terms = {}
    i = 0
    n = len(tokens)

    def tk(j):
        return tokens[j] if j < n else None

    sign = 1
    while i < n:
        m = tk(i)
        if m.group(5):  # +
            sign = 1
            i += 1
            continue
        if m.group(6):  # -
            sign = -1
            i += 1
            continue
        coeff = spec.one.code
        expo = [0] * nvars
        saw_factor = False
        while i < n:
            m = tk(i)
            if m.group(1):  # integer
                c = int(m.group(1)) % spec.p
                coeff = spec.mul(coeff, c) if c else 0
                saw_factor = True
                i += 1
            elif m.group(7):  # ( field literal: a polynomial in g over F_p )
                depth = 1
                j = i + 1
                inner = []
                while j < n and depth:
                    mj = tk(j)
                    if mj.group(7):
                        depth += 1
                    elif mj.group(8):
                        depth -= 1
                        if depth == 0:
                            break
                    inner.append(mj)
                    j += 1
                if depth:
                    raise ParseError("unbalanced parentheses")
                if any(mj.group(2) in var_index and mj.group(2) != "g"
                       for mj in inner):
                    raise ParseError(
                        "parentheses hold field literals in 'g' only; "
                        f"expand {text.strip()!r} into a sum of terms")
                if spec.k == 1:
                    raise ParseError("generator literals need an extension field")
                if any(mj.group(2) not in (None, "g") for mj in inner):
                    raise ParseError("field literals use the symbol 'g'")
                if any(mj.group(7) for mj in inner):
                    raise ParseError("field literals take no nested parentheses")
                code = parse_poly(text[m.end():tk(j).start()],
                                  gf.make_field(spec.p), 1, ("g",)
                                  ).evaluate_codes((spec.gen.code,), spec)
                coeff = spec.mul(coeff, code) if code else 0
                saw_factor = True
                i = j + 1
            elif m.group(2):  # variable, or the field generator symbol g
                name = m.group(2)
                if name not in var_index and not (name == "g" and spec.k > 1):
                    raise ParseError(f"unknown variable {name!r}")
                power = 1
                i += 1
                if tk(i) and tk(i).group(3):  # ^
                    i += 1
                    if not (tk(i) and tk(i).group(1)):
                        raise ParseError("expected integer exponent after '^'")
                    power = int(tk(i).group(1))
                    i += 1
                if name in var_index:
                    expo[var_index[name]] += power
                else:
                    coeff = spec.mul(coeff, spec.pow(spec.gen.code, power))
                saw_factor = True
            elif m.group(4):  # *
                i += 1
            else:
                break
        if not saw_factor:
            raise ParseError(f"dangling operator in {text!r}")
        if coeff:
            if sign < 0:
                coeff = spec.neg(coeff)
            e = tuple(expo)
            s = spec.add(terms.get(e, 0), coeff)
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        sign = 1
    return MPoly(spec, nvars, terms)


def parse_homogeneous(text, spec, nvars, aliases=None) -> MPoly:
    f = parse_poly(text, spec, nvars, aliases)
    if not f.is_homogeneous():
        raise HomogeneityError(f"{text!r} is not homogeneous")
    return f


# ---------------------------------------------------------------------------

# Rows per chunk of the point stream.  It bounds the engine's working
# memory: every array it builds has at most this many rows.
_CHUNK_ROWS = 4096


def normalized_projective_points(spec: FieldSpec, nvars: int):
    """Points of P^{nvars-1}(F), first nonzero coordinate 1, as int64 code
    arrays of at most _CHUNK_ROWS rows.

    Deterministic order: leading index ascending, then tail codes ascending
    (the tail read as a base-q numeral, first coordinate most significant).
    A chunk may span several leading indices, so small spaces come in one.
    """
    q = spec.q
    check_point_cap(q, nvars - 1)
    place = q ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    start = np.cumsum(place) - place    # position of each lead's first point
    total = int(place.sum())
    for lo in range(0, total, _CHUNK_ROWS):
        at = np.arange(lo, min(lo + _CHUNK_ROWS, total), dtype=np.int64)
        lead = np.searchsorted(start, at, side="right") - 1
        # the tail index is below the lead's place, so the digits up to the
        # lead come out 0
        rows = (at - start[lead])[:, None] // place % q
        rows[np.arange(len(at)), lead] = 1
        yield rows


def check_point_cap(q, n):
    """Refuse P^n(F_q) when its q^n points with x_0 = 1 pass the cap."""
    if q ** n > gf.ENUMERATION_CAP:
        raise gf.EnumerationCapExceeded(
            f"P^{n}(F_{q}) exceeds the point engine's fixed cap: "
            f"{q}^{n} > {gf.ENUMERATION_CAP}")


def _is_linear(f):
    return bool(f.terms) and all(sum(e) == 1 for e in f.terms)


def _linear_section(linear, nvars):
    """The degree-1 equations `linear` solved for their pivots: the free
    variables, and for each pivot variable p the linear form in the free
    variables that x_p equals.

    The reduced echelon form runs over reversed columns, so each pivot is the
    highest variable of its row and depends only on free variables below it.
    """
    base = linear[0].spec
    ech = linalg.echelon(base, [
        linalg.row(base, nvars, ((nvars - 1 - e.index(1), c)
                                 for e, c in f.terms.items()))
        for f in linear])
    solved = {}
    for r in ech:
        (col, _), *rest = linalg.entries(base, r)
        solved[nvars - 1 - col] = rest
    free = [i for i in range(nvars) if i not in solved]
    unit = {v: tuple(int(v == u) for u in free) for v in free}
    return free, [(p, MPoly(base, len(free), {unit[nvars - 1 - j]: base.neg(c)
                                              for j, c in rest}))
                  for p, rest in solved.items()]


def _section_points(linear, spec: FieldSpec, nvars: int):
    """The normalized points of P^{nvars-1}(F) on the linear equations, in
    the order of `normalized_projective_points`, from the normalized points
    of the free coordinates alone.

    A pivot depends only on earlier free coordinates, so the first nonzero
    coordinate of a row, and the first coordinate where two rows differ, is
    a free one: the free coordinates' order and normalization carry over.
    """
    if not linear:
        yield from normalized_projective_points(spec, nvars)
        return
    check_point_cap(spec.q, nvars - 1)     # the ambient scan's refusal
    free, pivots = _linear_section(linear, nvars)
    if not free:
        return
    for chunk in normalized_projective_points(spec, len(free)):
        rows = np.zeros((len(chunk), nvars), dtype=np.int64)
        rows[:, free] = chunk
        for p, form in pivots:
            rows[:, p] = form.evaluate_rows(chunk, spec)
        yield rows


def zero_locus_points(equations, removed, spec: FieldSpec, nvars: int):
    """The normalized points of P^{nvars-1}(F) at which every equation
    vanishes and, when `removed` is nonempty, some poly of it does not:
    nonempty int64 code arrays in the order of
    `normalized_projective_points`.  The degree-1 equations are solved
    once, and only the points of the subspace they cut are listed.  A
    nonzero constant equation lists nothing and scans no chunk."""
    if any(f.degree() == 0 for f in equations):
        return
    linear = tuple(f for f in equations if _is_linear(f))
    rest = [f for f in equations if not _is_linear(f)]
    for rows in _section_points(linear, spec, nvars):
        for f in rest:
            rows = rows[f.evaluate_rows(rows, spec) == 0]
        if removed:
            outside = np.zeros(len(rows), dtype=bool)
            for w in removed:
                outside |= w.evaluate_rows(rows, spec) != 0
            rows = rows[outside]
        if len(rows):
            yield rows


def projective_point_count(q: int, n: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)
