"""smoothsieve: zeta-product densities of smooth hypersurface sections
over finite fields, with exhaustive estimators and a constructive curve
embedder."""

__version__ = "0.1.0"

from . import gf, graded, linalg, mpoly, sieve, variety, zeta  # noqa: F401
