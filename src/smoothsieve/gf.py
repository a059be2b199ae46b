"""Arithmetic in F_p and its extensions F_{p^k}, including the towers
F_q < F_{q^e} needed to enumerate extension points of F_q-schemes.

Elements are carried as integer codes 0 <= code < p**k: the coefficient
vector (c_0, ..., c_{k-1}) of the element in the power basis of the
generator, read as a base-p integer with c_0 least significant.  For
p = 2 the code is literally the bit-packed coefficient vector, which the
enumeration kernels rely on.

FieldSpec and FieldElement are immutable values; the lazily built lookup
tables are write-once, so specs are safe to share across workers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import linalg

ENUMERATION_CAP = 1 << 24
_TABLE_CAP = 1 << 16


class SmoothsieveError(ValueError):
    """Base of the library's errors: an input or request it refuses, which
    the command line reports as one `error [Type]` line."""


class NonPrimeError(SmoothsieveError):
    """Characteristic is not prime."""


class ReducibleModulusError(SmoothsieveError):
    """Supplied modulus is not irreducible (or not monic of the right degree)."""


class FieldMismatchError(SmoothsieveError):
    """Operands live in different field specs."""


class IncompatibleFieldsError(SmoothsieveError):
    """No canonical embedding between the two specs."""


class EnumerationCapError(SmoothsieveError):
    """Requested enumeration exceeds the desk-scale cap."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# F_p[x] helpers on coefficient tuples (ascending powers).

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _ptrim(a[:dm])


def _is_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree <= k//2."""
    k = len(coeffs) - 1
    if k < 1 or coeffs[-1] != 1:
        return False
    if k == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    for t in range(1, k // 2 + 1):
        for code in range(p ** t, 2 * p ** t):
            d = _digits_of(code, p, t + 1)
            if not _pmod(coeffs, d, p):
                return False
    return True


def _digits_of(code, p, width):
    out = []
    for _ in range(width):
        code, r = divmod(code, p)
        out.append(r)
    return tuple(out)


def _canonical_modulus(p, k):
    """First irreducible monic degree-k polynomial in code order.

    Codes run p^k .. 2*p^k - 1, i.e. coefficient vectors compared with the
    leading coefficients most significant; this is what makes runs
    reproducible across machines.
    """
    for code in range(p ** k, 2 * p ** k):
        coeffs = _digits_of(code, p, k + 1)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------

class FieldSpec:
    """Description of F_{p^k} = F_p[x]/(modulus); q = p**k.

    All arithmetic methods act on integer element codes.  Do not call the
    constructor directly: `make_field` validates and interns specs.
    """

    __slots__ = ("p", "k", "q", "modulus", "_mod_int", "_exp", "_log",
                 "_primitive")

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        # bit-packed modulus for the p = 2 fast path
        self._mod_int = sum(c << i for i, c in enumerate(modulus)) if p == 2 else None
        self._exp = None
        self._log = None
        self._primitive = None

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, k={self.k}, modulus={self.modulus_string()})"

    def modulus_string(self, sym: str = "x") -> str:
        return poly_string(self.modulus, sym)

    # -- element codecs ----------------------------------------------------

    def digits(self, code):
        return _digits_of(code, self.p, self.k)

    def from_digits(self, digits):
        code = 0
        for c in reversed(digits):
            code = code * self.p + (c % self.p)
        return code

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldMismatchError("element belongs to a different field")
            return value
        if isinstance(value, int):
            if self.k == 1:
                return FieldElement(self, value % self.p)
            if 0 <= value < self.q:
                return FieldElement(self, value)
            raise ValueError(f"code {value} out of range for {self!r}")
        return FieldElement(self, self.from_digits(list(value)))

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, 1)

    @property
    def gen(self):
        """The class of x (equals 0 in a prime field, where k = 1)."""
        return FieldElement(self, self.p if self.k > 1 else 0)

    @property
    def primitive(self):
        """The least code that generates the multiplicative group F_q^*;
        the log/exp tables are built from it."""
        if self._primitive is None:
            self._primitive = self._find_generator()
        return self._primitive

    # -- code arithmetic ---------------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _mul_raw(self, a, b):
        if self.p == 2:
            acc = 0
            mod = self._mod_int
            k = self.k
            top = 1 << k
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return acc
        prod = _pmul(self.digits(a), self.digits(b), self.p)
        return self.from_digits(_pmod(prod, self.modulus, self.p))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._exp is None and self.q <= _TABLE_CAP:
            self._build_tables()
        if self._exp is not None:
            n = self._log[a] + self._log[b]
            return self._exp[n % (self.q - 1)]
        return self._mul_raw(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.q}")
        if self._exp is None and self.q <= _TABLE_CAP:
            self._build_tables()
        if self._exp is not None:
            return self._exp[(-self._log[a]) % (self.q - 1)]
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is None and self.q <= _TABLE_CAP:
            self._build_tables()
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _build_tables(self):
        q = self.q
        g = self.primitive
        exp = [0] * (q - 1)
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_raw(acc, g)
        self._log = log
        self._exp = exp

    def _find_generator(self):
        q = self.q
        if q == 2:
            return 1
        fac = prime_factors(q - 1)
        for cand in range(2, q):
            ok = True
            for f in fac:
                e = (q - 1) // f
                r, a = 1, cand
                while e:
                    if e & 1:
                        r = self._mul_raw(r, a)
                    a = self._mul_raw(a, a)
                    e >>= 1
                if r == 1:
                    ok = False
                    break
            if ok:
                return cand
        raise AssertionError("no multiplicative generator found")

    def element_string(self, code, sym: str = "g") -> str:
        if self.k == 1:
            return str(code)
        return poly_string(self.digits(code), sym)


class CodeArrays:
    """Elementwise arithmetic on numpy int64 arrays of element codes.

    Fields with q <= _TABLE_CAP multiply through numpy copies of the
    log/exp tables; larger fields multiply base-p digit vectors as
    polynomials and fold the product back through the modulus, mod p.
    Sums add base-p digits, which over p = 2 is XOR.  Build one per field
    with `code_arrays`.
    """

    def __init__(self, spec):
        self.spec = spec
        self._log = self._exp = None
        self._place = spec.p ** np.arange(spec.k, dtype=np.int64)
        if spec.q <= _TABLE_CAP:
            if spec._exp is None:
                spec._build_tables()
            self._log = np.array(spec._log, dtype=np.int64)
            self._exp = np.array(spec._exp, dtype=np.int64)
            return
        # fold[i * k + j] = the digits of x^(i + j) reduced by the modulus
        powers = [1]
        for _ in range(2 * spec.k - 2):
            powers.append(spec._mul_raw(powers[-1], spec.p))
        self._fold = np.array([spec.digits(powers[i + j])
                               for i in range(spec.k) for j in range(spec.k)],
                              dtype=np.int64)

    def _digits(self, codes):
        return codes[..., None] // self._place % self.spec.p

    def _mul_digits(self, a, b):
        """The product of two arrays of digit vectors, shape (..., k)."""
        p, k = self.spec.p, self.spec.k
        outer = a[..., :, None] * b[..., None, :] % p
        return outer.reshape(outer.shape[:-2] + (k * k,)) @ self._fold % p

    def _pow_digits(self, a, n):
        out = None
        while n:
            if n & 1:
                out = a if out is None else self._mul_digits(out, a)
            n >>= 1
            if n:
                a = self._mul_digits(a, a)
        return out

    def term(self, coeff, factors, shape):
        """coeff * prod(x ** n for x, n in factors) as an array of `shape`:
        coeff a nonzero code, each x a code array of that shape, n >= 1."""
        if self._log is not None:
            s = np.full(shape, self._log[coeff])
            zero = np.zeros(shape, dtype=bool)
            for x, n in factors:
                s += n * self._log[x]
                zero |= x == 0
            out = self._exp[s % (self.spec.q - 1)]
            out[zero] = 0
            return out
        out = self._digits(np.full(shape, coeff, dtype=np.int64))
        for x, n in factors:
            out = self._mul_digits(out, self._pow_digits(self._digits(x), n))
        return out @ self._place

    def pow(self, x, n):
        """x ** n elementwise, n >= 1."""
        return self.term(1, [(x, n)], x.shape)

    def monomials(self, points, exponents, coeffs):
        """coeffs[t] * prod_i x_i ** exponents[t, i] at each row x of the
        code array `points`, as an array of shape (rows, len(exponents)):
        with the tables one log-sum per monomial, all of them as a single
        matmul of the coordinates' logs, else one `term` per monomial."""
        if self._log is not None:
            s = self._log[points] @ exponents.T + self._log[coeffs]
            out = self._exp[s % (self.spec.q - 1)]
            out[((points == 0) @ (exponents.T > 0)) | (coeffs == 0)] = 0
            return out
        cols, size = points.T, len(points)
        out = np.zeros((size, len(exponents)), dtype=np.int64)
        for t, (e, c) in enumerate(zip(exponents.tolist(), coeffs.tolist())):
            if c:
                out[:, t] = self.term(c, [(cols[i], n) for i, n in enumerate(e)
                                          if n], size)
        return out

    def total(self, values, size):
        """The sum of an iterable of code arrays of length `size`."""
        if self.spec.p == 2:
            acc = np.zeros(size, dtype=np.int64)
            for v in values:
                acc ^= v
            return acc
        p, place = self.spec.p, self._place
        acc = np.zeros((size, len(place)), dtype=np.int64)
        for v in values:
            acc += v[:, None] // place % p
        return acc % p @ place


@lru_cache(maxsize=None)
def code_arrays(spec: FieldSpec) -> CodeArrays:
    return CodeArrays(spec)


def poly_string(coeffs, sym):
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i] if i < len(coeffs) else 0
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}{sym}" + (f"^{i}" if i > 1 else ""))
    return "+".join(parts) if parts else "0"


class FieldElement:
    """An element of a FieldSpec; immutable wrapper around an integer code."""

    __slots__ = ("spec", "code")

    def __init__(self, spec, code):
        self.spec = spec
        self.code = code

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldMismatchError(
                    f"mixing elements of {self.spec!r} and {other.spec!r}")
            return other.code
        if isinstance(other, int):
            return self.spec.element(other).code
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(self.code, c))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul(self.code, self.spec.inv(c)))

    def __pow__(self, e):
        return FieldElement(self.spec, self.spec.pow(self.code, e))

    def inv(self):
        return FieldElement(self.spec, self.spec.inv(self.code))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.code == other.code
        if isinstance(other, int):
            return self.spec.element(other).code == self.code
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"<{self.spec.element_string(self.code)} in F_{self.spec.q}>"

    @property
    def coeffs(self):
        return self.spec.digits(self.code)


# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _make_field(p, k, modulus):
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if modulus is None:
        modulus = _canonical_modulus(p, k)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ReducibleModulusError(
                f"modulus must be monic of degree {k} over F_{p}")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulusError(
                f"{poly_string(modulus, 'x')} is reducible over F_{p}")
    return FieldSpec(p, k, modulus)


def make_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Build (and intern) F_{p^k}.

    Without an explicit modulus the canonical irreducible is chosen: the
    first monic irreducible of degree k in code order.
    """
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    return _make_field(int(p), int(k), modulus)


# ---------------------------------------------------------------------------
# Canonical embeddings.  Atomic steps (prime degree ratio) send the subfield
# generator to the least root of its modulus inside the target; composite
# ratios factor through the canonical intermediate field, smallest prime
# first, so towers F_q -> F_{q^2} -> F_{q^4} compose exactly.

def _frob_matrix(spec):
    """Matrix of the p-power map on F_{p^K} over F_p, columns = images of x^i."""
    cols = []
    for i in range(spec.k):
        code = spec.from_digits([0] * i + [1]) if i else 1
        cols.append(spec.digits(spec.pow(code, spec.p)))
    return cols


def _subfield_codes(spec, j):
    """Element codes of the degree-j subfield of spec (fixed points of Frob^j)."""
    p, K = spec.p, spec.k
    cols = _frob_matrix(spec)
    # M = Frob^j as a K x K matrix over F_p
    mat = [[1 if r == c else 0 for c in range(K)] for r in range(K)]  # identity
    for _ in range(j):
        new = [[0] * K for _ in range(K)]
        for c in range(K):
            for i in range(K):
                ci = mat[i][c]
                if ci:
                    col = cols[i]
                    for r in range(K):
                        new[r][c] = (new[r][c] + ci * col[r]) % p
        mat = new
    for r in range(K):
        mat[r][r] = (mat[r][r] - 1) % p
    fp = make_field(p)
    basis = [linalg.entries(fp, v) for v in linalg.kernel(
        fp, [linalg.row(fp, K, enumerate(r)) for r in mat], K)]
    assert len(basis) == j, "subfield dimension mismatch"
    # span of the basis
    codes = []
    from itertools import product
    for coeffs in product(range(p), repeat=j):
        v = [0] * K
        for c, b in zip(coeffs, basis):
            if c:
                for r, x in b:
                    v[r] = (v[r] + c * x) % p
        codes.append(spec.from_digits(v))
    return sorted(codes)


@lru_cache(maxsize=None)
def embed_map(sub: FieldSpec, target: FieldSpec) -> tuple:
    """Code translation table for the canonical embedding sub -> target."""
    if sub.p != target.p or target.k % sub.k != 0:
        raise IncompatibleFieldsError(
            f"F_{sub.q} does not embed in F_{target.q}")
    if sub == target:
        return tuple(range(sub.q))
    p = sub.p
    if sub.k == 1:
        return tuple(range(p))
    ratio = target.k // sub.k
    if ratio == 1 or is_prime(ratio):
        # atomic: least root of sub's modulus inside the degree-k subfield
        gamma = None
        for code in _subfield_codes(target, sub.k):
            acc = 0
            for c in reversed(sub.modulus):
                acc = target.add(target.mul(acc, code), c)
            if acc == 0:
                gamma = code
                break
        if gamma is None:
            raise AssertionError("modulus has no root in the subfield")
        powers = [1]
        for _ in range(sub.k - 1):
            powers.append(target.mul(powers[-1], gamma))
        table = []
        for code in range(sub.q):
            acc = 0
            for c, gp in zip(sub.digits(code), powers):
                if c:
                    acc = target.add(acc, target.mul(gp, c))
            table.append(acc)
        return tuple(table)
    t = min(prime_factors(ratio))
    mid = make_field(p, sub.k * t)
    lo = embed_map(sub, mid)
    hi = embed_map(mid, target)
    return tuple(hi[c] for c in lo)


def embed(a: FieldElement, target: FieldSpec) -> FieldElement:
    """Canonical ring embedding of a into the extension field target."""
    return FieldElement(target, embed_map(a.spec, target)[a.code])
