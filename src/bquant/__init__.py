"""Exact quantization of toric and b-toric moment-image descriptions.

The library computes finite weight characters from combinatorial moment
data: a compact lattice polytope, or a signed list of component polyhedra
whose unbounded tails cancel in matched opposite-sign pairs across singular
hypersurfaces.  All arithmetic is exact (integers and fractions); every
cancellation is certified before it is used.
"""

__version__ = "0.1.0"

from .characters import VirtualCharacter
from .engine import (
    QRReport,
    ReducedSpaceResult,
    TailEnd,
    collapse_signed_tails,
    facet_weights,
    quantize_b,
    quantize_compact_toric,
    quantize_description,
    quantize_local_model,
    reduced_space_quantization,
    tail_matching,
    verify_qr_product,
)
from .errors import (
    BQuantError,
    DescriptionKindError,
    DimensionMismatchError,
    EmptyPolyhedronError,
    EnumerationBudgetError,
    HypersurfaceIndexError,
    NoVerticesError,
    NotFiniteError,
    NotValidatedError,
    ParseError,
    SelfCheckError,
    UnboundedPolyhedronError,
    ZeroModularWeightError,
)
from .polyhedra import LatticePolyhedron
from .spaces import (
    BSpaceDescription,
    CompactToricSpace,
    HypersurfaceRecord,
    LocalModel,
    ValidationReport,
    leaf_embedding_basis,
    load_description,
    local_model,
    parse_description,
    tail_threshold,
    validate_description,
)

__all__ = [
    "__version__",
    "BQuantError",
    "BSpaceDescription",
    "CompactToricSpace",
    "DescriptionKindError",
    "DimensionMismatchError",
    "EmptyPolyhedronError",
    "EnumerationBudgetError",
    "HypersurfaceIndexError",
    "HypersurfaceRecord",
    "LatticePolyhedron",
    "LocalModel",
    "NoVerticesError",
    "NotFiniteError",
    "NotValidatedError",
    "ParseError",
    "QRReport",
    "ReducedSpaceResult",
    "SelfCheckError",
    "TailEnd",
    "UnboundedPolyhedronError",
    "ValidationReport",
    "VirtualCharacter",
    "ZeroModularWeightError",
    "collapse_signed_tails",
    "facet_weights",
    "leaf_embedding_basis",
    "load_description",
    "local_model",
    "parse_description",
    "quantize_b",
    "quantize_compact_toric",
    "quantize_description",
    "quantize_local_model",
    "reduced_space_quantization",
    "tail_matching",
    "tail_threshold",
    "validate_description",
    "verify_qr_product",
]
