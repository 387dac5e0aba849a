"""gl2lab: exact-arithmetic laboratory for GL(2) over p-adic fields.

Central test functions and their invariants, Bruhat-Tits tree orbital
sums, norm maps and twisted conjugacy at finite level, character theory
of GL2 over Z/p^n, Hecke-algebra convolution identities, and elliptic
curve censuses over small finite fields.  All arithmetic is exact.
"""

from .errors import (DomainError, GL2LabError, NotStabilizable,
                     PrecisionExhausted, ResourceLimit)
from .padic import (INF, ExtendedNat, GaloisRingElement, LocalContext,
                    LocalMatrix, context_for_level, ell_of, frobenius,
                    get_context, k_of, norm_map, sigma_conjugate,
                    unit_eigenvalue)

# The seed of every sampled check unless a caller passes its own.
DEFAULT_SEED = 20259

__all__ = [
    "DomainError", "GL2LabError", "NotStabilizable", "PrecisionExhausted",
    "ResourceLimit", "INF", "ExtendedNat", "GaloisRingElement",
    "LocalContext", "LocalMatrix", "context_for_level", "ell_of",
    "frobenius", "get_context", "k_of", "norm_map", "sigma_conjugate",
    "unit_eigenvalue", "DEFAULT_SEED",
]

__version__ = "0.1.0"
