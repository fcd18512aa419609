"""Topology of planar integral self-affine tiles with collinear digit sets.

Exact-arithmetic classification, neighbor sets, contact-graph boundary
parametrization, cut-point certificates, curve-chain verification, and
deterministic SVG rendering for the two-parameter family (A, B).
"""

from .errors import (
    BadDeterminant,
    BudgetExceeded,
    CertificateFailure,
    ChainViolation,
    DegenerateBasis,
    IdentityFailure,
    NonPeriodicWalk,
    NotExpanding,
    OutOfRange,
    TileError,
    WrongRegime,
)
from .numsys import (
    Address,
    AffineNormalization,
    RawInstance,
    TileParams,
    alt_flip,
    apply_contraction,
    flip,
    format_address,
    normalize,
    parse_address,
    point_eval,
)

__all__ = [
    "Address",
    "AffineNormalization",
    "RawInstance",
    "TileParams",
    "alt_flip",
    "apply_contraction",
    "flip",
    "format_address",
    "normalize",
    "parse_address",
    "point_eval",
    "TileError",
    "BadDeterminant",
    "BudgetExceeded",
    "CertificateFailure",
    "ChainViolation",
    "DegenerateBasis",
    "IdentityFailure",
    "NonPeriodicWalk",
    "NotExpanding",
    "OutOfRange",
    "WrongRegime",
]

__version__ = "0.1.0"
