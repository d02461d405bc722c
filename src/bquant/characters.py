"""Virtual characters of a torus with finitely supported integer multiplicities.

Weights of the rank-n torus are identified with Z^n through the standard
basis once and for all; a weight is a plain tuple of ints.  A
`VirtualCharacter` is a finitely supported map weight -> multiplicity in Z,
stored canonically (zero multiplicities dropped, iteration in lexicographic
weight order).  The engine reads a description's formal signed sum of
polyhedron indicators straight off its components; nothing wraps it here.
"""

from .errors import DimensionMismatchError

__all__ = ["VirtualCharacter"]


def _check_rank(rank):
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise ValueError(f"rank must be a nonnegative integer, got {rank!r}")


def _as_weight(weight, rank):
    weight = tuple(weight)
    if len(weight) != rank:
        raise DimensionMismatchError(
            f"weight of length {len(weight)} used with rank {rank}"
        )
    for entry in weight:
        if not isinstance(entry, int) or isinstance(entry, bool):
            raise ValueError(f"weight entries must be integers, got {entry!r}")
    return weight


class VirtualCharacter:
    """Finitely supported weight -> Z map in canonical form.

    The constructor checks every weight and multiplicity it is given, so
    a character built from outside input is canonical or refused.  Tables
    the engine built itself (tuples of ints with nonzero int values) go
    through :meth:`_from_table` instead, which only sorts them.
    """

    __slots__ = ("rank", "_multiplicities")

    def __init__(self, rank, multiplicities=None):
        _check_rank(rank)
        table = {}
        if multiplicities:
            items = multiplicities.items() if isinstance(multiplicities, dict) \
                else multiplicities
            for weight, multiplicity in items:
                weight = _as_weight(weight, rank)
                if not isinstance(multiplicity, int) or isinstance(multiplicity, bool):
                    raise ValueError(
                        f"multiplicity must be an integer, got {multiplicity!r}"
                    )
                total = table.get(weight, 0) + multiplicity
                if total:
                    table[weight] = total
                elif weight in table:
                    del table[weight]
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_multiplicities", dict(sorted(table.items())))

    @classmethod
    def _from_table(cls, rank, table):
        """Character of a weight -> multiplicity dict the engine built,
        whose weights are tuples of `rank` ints and whose multiplicities
        are nonzero ints.  Sorts once and tests no entry; anything from
        outside the engine goes through the constructor."""
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_multiplicities", dict(sorted(table.items())))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("VirtualCharacter is immutable")

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def delta(cls, weight, multiplicity=1):
        weight = tuple(weight)
        return cls(len(weight), {weight: multiplicity})

    # ------------------------------------------------------------------

    def multiplicity(self, weight):
        return self._multiplicities.get(_as_weight(weight, self.rank), 0)

    def items(self):
        """(weight, multiplicity) pairs in lexicographic weight order."""
        return list(self._multiplicities.items())

    def support(self):
        return list(self._multiplicities)

    def is_zero(self):
        return not self._multiplicities

    def dimension(self):
        """Signed total dimension: the sum of all multiplicities."""
        return sum(self._multiplicities.values())

    def invariant_part(self):
        """Multiplicity of the zero weight."""
        return self._multiplicities.get((0,) * self.rank, 0)

    def negate(self):
        return VirtualCharacter(
            self.rank, {w: -m for w, m in self._multiplicities.items()}
        )

    __neg__ = negate

    def __add__(self, other):
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        if self.rank != other.rank:
            raise DimensionMismatchError(
                f"cannot add characters of ranks {self.rank} and {other.rank}"
            )
        table = dict(self._multiplicities)
        for weight, multiplicity in other._multiplicities.items():
            table[weight] = table.get(weight, 0) + multiplicity
        return VirtualCharacter(self.rank, table)

    def __sub__(self, other):
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self + other.negate()

    def tensor(self, other):
        """Convolution of multiplicity maps (character of the tensor product)."""
        if not isinstance(other, VirtualCharacter):
            raise TypeError("tensor expects a VirtualCharacter")
        if self.rank != other.rank:
            raise DimensionMismatchError(
                f"cannot tensor characters of ranks {self.rank} and {other.rank}"
            )
        table = {}
        for wa, ma in self._multiplicities.items():
            for wb, mb in other._multiplicities.items():
                key = tuple(a + b for a, b in zip(wa, wb))
                table[key] = table.get(key, 0) + ma * mb
        return VirtualCharacter(self.rank, table)

    def __eq__(self, other):
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self.rank == other.rank and \
            self._multiplicities == other._multiplicities

    __hash__ = None

    def __repr__(self):
        return f"VirtualCharacter(rank={self.rank}, {self._multiplicities!r})"

    # ------------------------------------------------------------------

    def to_payload(self):
        """Canonical serialization; weights sorted lexicographically."""
        return {
            "rank": self.rank,
            "multiplicities": [
                {"weight": list(weight), "mult": multiplicity}
                for weight, multiplicity in self._multiplicities.items()
            ],
        }

