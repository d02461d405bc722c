"""Exception types shared across the package, and the enumeration budget
that EnumerationBudgetError enforces."""

__all__ = [
    "BQuantError",
    "DimensionMismatchError",
    "DescriptionKindError",
    "HypersurfaceIndexError",
    "EmptyPolyhedronError",
    "EnumerationBudgetError",
    "UnboundedPolyhedronError",
    "NoVerticesError",
    "ParseError",
    "NotValidatedError",
    "ZeroModularWeightError",
    "NotFiniteError",
    "SelfCheckError",
]

# most rows one scan visits, and most points one listing holds; a larger
# enumeration raises EnumerationBudgetError instead of exhausting memory
ENUMERATION_BUDGET = 10**6


class BQuantError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(BQuantError, ValueError):
    """Ranks of interacting objects disagree."""


class DescriptionKindError(BQuantError, TypeError):
    """An operation got a description of the wrong kind (compact where a
    b_toric one is needed, or the reverse)."""


class HypersurfaceIndexError(BQuantError, IndexError):
    """A hypersurface index lies outside the description's records."""


class EmptyPolyhedronError(BQuantError):
    """An operation that needs a nonempty polyhedron was given an empty one."""


class UnboundedPolyhedronError(BQuantError):
    """Lattice enumeration was requested for an unbounded polyhedron."""

    def __init__(self, message: str, ray=None):
        super().__init__(message)
        self.ray = ray


class EnumerationBudgetError(BQuantError):
    """A lattice enumeration would scan more rows or list more points than
    the fixed budget allows.  `count` is the row or point count that went
    over it."""

    def __init__(self, message: str, count=None):
        super().__init__(message)
        self.count = count


class NoVerticesError(BQuantError):
    """The polyhedron contains a line, so it has no vertices."""


class ParseError(BQuantError, ValueError):
    """A description file is syntactically or structurally malformed."""


class NotValidatedError(BQuantError):
    """A quantization entry point was handed a description that fails validation."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ZeroModularWeightError(BQuantError):
    """Quantization requested for a description with a vanishing modular weight."""


class NotFiniteError(BQuantError):
    """Signed tails fail to cancel, so no finite character exists.

    `witness` carries the unmatched tail: either (term index, ray) for a
    recession direction no hypersurface end claims, or a hypersurface index
    whose paired tails are not opposite set-equal copies.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SelfCheckError(BQuantError):
    """An internal certification pass (a re-evaluation from certified row
    intervals) disagreed."""
