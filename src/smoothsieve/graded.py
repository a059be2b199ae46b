"""Graded pieces of homogeneous ideals over F_q by pure linear algebra:
degree-d pieces, degreewise saturation, membership and projective
emptiness certificates.  No Groebner bases anywhere; everything reduces
to row reduction of multiplication matrices (`linalg`).  Column j of a row
is the coefficient of the j-th graded-lex monomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf, linalg, mpoly
from .gf import FieldSpec
from .mpoly import MPoly, monomial_index, monomials_of_degree


class SubspaceBasis:
    """Reduced row-echelon basis of a subspace of S_d in the monomial basis."""

    __slots__ = ("spec", "degree", "ncols", "rows")

    def __init__(self, spec, degree, ncols, rows):
        self.spec = spec
        self.degree = degree
        self.ncols = ncols
        self.rows = tuple(rows)

    @property
    def rank(self):
        return len(self.rows)

    def contains_vector(self, vec) -> bool:
        return not linalg.entries(
            self.spec, linalg.reduce(self.spec, vec, self.rows))

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis) and self.degree == other.degree
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.degree, self.ncols, self.rows))

    def to_polys(self, nvars) -> list[MPoly]:
        monos = monomials_of_degree(nvars, self.degree)
        out = []
        for row in self.rows:
            terms = {monos[j]: c for j, c in linalg.entries(self.spec, row)}
            out.append(MPoly(self.spec, nvars, terms))
        return out


def poly_to_vector(f: MPoly, degree: int):
    """Coefficient vector of a homogeneous f in the degree-d monomial basis."""
    idx = monomial_index(f.nvars, degree)
    return linalg.row(f.spec, len(idx),
                      ((idx[e], c) for e, c in f.terms.items()))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmptinessCertificate:
    """Outcome of the projective emptiness test for V(J).

    status 'empty' carries the least degree k with J_k = S_k (a
    machine-checkable Nullstellensatz certificate); 'nonempty' carries a
    witness point over F_{q^e}; 'inconclusive' means neither was found
    within the configured bounds.
    """
    status: str
    k: int | None = None
    witness: tuple | None = None
    witness_field: FieldSpec | None = None

    def to_json_dict(self):
        out = {"status": self.status}
        if self.k is not None:
            out["k"] = self.k
        if self.witness is not None:
            fs = self.witness_field
            out["witness"] = [fs.element_string(c) for c in self.witness]
            out["witness_field"] = {
                "q": fs.q, "modulus": fs.modulus_string()}
        return out


class GradedIdeal:
    """Homogeneous ideal presented by generators, with cached graded pieces.

    Caches are filled on demand; fill them from a single thread, then the
    frozen ideal may be shared read-only.
    """

    def __init__(self, spec: FieldSpec, nvars: int, generators):
        self.spec = spec
        self.nvars = nvars
        gens = []
        for g in generators:
            if not g:
                continue
            if g.spec != spec or g.nvars != nvars:
                raise gf.FieldMismatchError(
                    "generator does not match the ideal's ring")
            g.homogeneous_degree()  # raises on inhomogeneous input
            gens.append(g)
        self.generators = tuple(gens)
        self._pieces: dict[int, SubspaceBasis] = {}
        self._saturated: dict[int, tuple] = {}

    # -- degree-d part of the generated ideal --------------------------------

    def piece(self, d: int) -> SubspaceBasis:
        if d < 0:
            raise ValueError("degree must be >= 0")
        cached = self._pieces.get(d)
        if cached is not None:
            return cached
        spec = self.spec
        idx = monomial_index(self.nvars, d)
        ncols = len(idx)
        rows = []
        for g in self.generators:
            dg = g.homogeneous_degree()
            if dg > d:
                continue
            for m in monomials_of_degree(self.nvars, d - dg):
                rows.append(linalg.row(spec, ncols, [
                    (idx[tuple(a + b for a, b in zip(e, m))], c)
                    for e, c in g.terms.items()]))
        basis = SubspaceBasis(spec, d, ncols, linalg.echelon(spec, rows))
        self._pieces[d] = basis
        return basis

    def saturated_piece(self, d: int):
        """Degree-d part of the saturation, with an honesty flag.

        Returns (basis, flag); flag is 'stable' when the ascending chain
        {f : x_i^N f in piece(d+N) for all i} repeated a value for two
        consecutive N, and 'capped' when N reached the cap, d plus the
        generators' degrees, first.
        """
        cached = self._saturated.get(d)
        if cached is not None:
            return cached
        cap = d + sum(g.homogeneous_degree() for g in self.generators)
        spec = self.spec
        dim_sd = len(monomials_of_degree(self.nvars, d))
        current = self.piece(d)
        flag = "capped"
        if current.rank == dim_sd:
            flag = "stable"  # nothing above the full space
        else:
            for n in range(1, cap + 1):
                nxt = self._saturation_stage(d, n)
                if nxt.rank == current.rank:
                    current = nxt
                    flag = "stable"
                    break
                current = nxt
                if current.rank == dim_sd:
                    flag = "stable"
                    break
        result = (current, flag)
        self._saturated[d] = result
        return result

    def _saturation_stage(self, d: int, n: int) -> SubspaceBasis:
        """{f in S_d : x_i^n f in piece(d+n) for every i}."""
        spec = self.spec
        nvars = self.nvars
        monos_d = monomials_of_degree(nvars, d)
        dim_d = len(monos_d)
        target = self.piece(d + n)
        idx_up = monomial_index(nvars, d + n)
        ncols_up = len(idx_up)
        # column j of the stage-i conditions: x_i^n * m_j reduced modulo
        # piece(d+n)
        cond_rows = []
        for i in range(nvars):
            residuals = []
            for m in monos_d:
                e = list(m)
                e[i] += n
                unit = linalg.row(spec, ncols_up, [(idx_up[tuple(e)], 1)])
                residuals.append(linalg.reduce(spec, unit, target.rows))
            cond_rows += linalg.transpose(spec, residuals, ncols_up)
        kern = linalg.kernel(spec, cond_rows, dim_d)
        return SubspaceBasis(spec, d, dim_d, linalg.echelon(spec, kern))

    # -- membership ------------------------------------------------------------

    def contains(self, f: MPoly) -> bool:
        """Whether f lies in the saturated ideal."""
        if not f:
            return True
        d = f.homogeneous_degree()
        return self.saturated_piece(d)[0].contains_vector(poly_to_vector(f, d))

    # -- projective emptiness -----------------------------------------------------

    def certifies_empty_at(self, k: int) -> bool:
        """Single-degree check: J_k = S_k proves V(J) empty (monotone in k)."""
        return self.piece(k).rank == len(monomials_of_degree(self.nvars, k))

    def is_projectively_empty(self) -> EmptinessCertificate:
        """'empty' at the least degree k with J_k = S_k, searched up to
        2 + sum(deg g - 1) over the generators, else 'inconclusive'."""
        k_max = sum(g.homogeneous_degree() - 1 for g in self.generators) + 2
        for k in range(1, k_max + 1):
            if self.certifies_empty_at(k):
                return EmptinessCertificate("empty", k=k)
        return EmptinessCertificate("inconclusive")

    def find_point(self, e_max: int, removed=()):
        """The first normalized point of P^n(F_{q^e}), e <= e_max, at which
        every generator vanishes and, when `removed` is nonempty, some poly
        of it does not; None when there is none."""
        base = self.spec
        for e in range(1, e_max + 1):
            ext = gf.make_field(base.p, base.k * e)
            rows = next(mpoly.zero_locus_points(self.generators, removed, ext,
                                                self.nvars), None)
            if rows is not None:
                return tuple(rows[0].tolist()), ext
        return None
