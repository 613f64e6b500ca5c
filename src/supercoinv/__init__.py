"""Exact engine for multigraded bosonic-fermionic coinvariant quotients.

Builds the diagonal coinvariant rings of the symmetric group over exact
rational arithmetic, computes their multigraded Hilbert / Frobenius series,
expands them in the super Schur basis, and mechanically verifies the
structural identities the construction satisfies.
"""

from .coinvariant import (
    CeilingExceeded,
    CoeffTable,
    FrobeniusSeries,
    IdealComponentCache,
    coeff_table,
    frobenius_series,
    hilbert_series,
)
from .superschur import QUPoly, expand_super_schur, super_cauchy_check, super_schur

__version__ = "0.1.0"

__all__ = [
    "CeilingExceeded",
    "CoeffTable",
    "FrobeniusSeries",
    "IdealComponentCache",
    "QUPoly",
    "coeff_table",
    "expand_super_schur",
    "frobenius_series",
    "hilbert_series",
    "super_cauchy_check",
    "super_schur",
    "__version__",
]
