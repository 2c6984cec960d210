"""n-dimensional rectangles over discrete cell grids.

COLARM's multidimensional space is the grid of discretized cells (Section
2.1): dimension ``i`` has integer coordinates ``0 .. cardinality_i - 1``.  A
:class:`Rect` is a closed integer box ``[lo_i, hi_i]`` per dimension — an
itemset's bounding box spans a single cell on the attributes it fixes and
the whole domain elsewhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import DataError

__all__ = ["Rect", "mbr_of"]


@dataclass(frozen=True)
class Rect:
    """A closed integer box: ``lows[i] <= x_i <= highs[i]`` per dimension."""

    lows: tuple[int, ...]
    highs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise DataError("lows and highs must have the same dimensionality")
        if not self.lows:
            raise DataError("rectangles need at least one dimension")
        if any(lo > hi for lo, hi in zip(self.lows, self.highs)):
            raise DataError(f"inverted interval in {self.lows} .. {self.highs}")

    # -- construction ------------------------------------------------------

    @staticmethod
    def point(coords: Sequence[int]) -> "Rect":
        """The degenerate box covering a single cell."""
        coords = tuple(coords)
        return Rect(coords, coords)

    @staticmethod
    def full_domain(cardinalities: Sequence[int]) -> "Rect":
        """The box covering the entire grid."""
        return Rect(
            tuple(0 for _ in cardinalities),
            tuple(c - 1 for c in cardinalities),
        )

    # -- shape ---------------------------------------------------------------

    @property
    def n_dims(self) -> int:
        return len(self.lows)

    def extent(self, dim: int) -> int:
        """Number of cells the box spans in one dimension."""
        return self.highs[dim] - self.lows[dim] + 1

    def extents(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lows, self.highs))

    def area(self) -> int:
        """Number of grid cells covered (product of extents)."""
        area = 1
        for e in self.extents():
            area *= e
        return area

    def margin(self) -> int:
        """Sum of extents (the R*-tree 'perimeter' surrogate)."""
        return sum(self.extents())

    def center(self) -> tuple[float, ...]:
        return tuple((l + h) / 2.0 for l, h in zip(self.lows, self.highs))

    # -- relations -------------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        self._check_dims(other)
        return all(
            sl <= oh and ol <= sh
            for sl, sh, ol, oh in zip(self.lows, self.highs, other.lows, other.highs)
        )

    def contains(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely inside this box."""
        self._check_dims(other)
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lows, self.highs, other.lows, other.highs)
        )

    def contains_point(self, coords: Sequence[int]) -> bool:
        return all(l <= c <= h for l, h, c in zip(self.lows, self.highs, coords))

    # -- combination -------------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        """Minimum bounding rectangle of the two boxes."""
        self._check_dims(other)
        return Rect(
            tuple(min(a, b) for a, b in zip(self.lows, other.lows)),
            tuple(max(a, b) for a, b in zip(self.highs, other.highs)),
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping box, or ``None`` if disjoint."""
        self._check_dims(other)
        lows = tuple(max(a, b) for a, b in zip(self.lows, other.lows))
        highs = tuple(min(a, b) for a, b in zip(self.highs, other.highs))
        if any(lo > hi for lo, hi in zip(lows, highs)):
            return None
        return Rect(lows, highs)

    def enlargement(self, other: "Rect") -> int:
        """Area growth needed to absorb ``other`` (Guttman's insert metric)."""
        return self.union(other).area() - self.area()

    def _check_dims(self, other: "Rect") -> None:
        if self.n_dims != other.n_dims:
            raise DataError(
                f"dimensionality mismatch: {self.n_dims} vs {other.n_dims}"
            )


def mbr_of(rects: Iterable[Rect]) -> Rect:
    """Minimum bounding rectangle of a non-empty collection."""
    rects = list(rects)
    if not rects:
        raise DataError("mbr_of needs at least one rectangle")
    for rect in rects:
        rects[0]._check_dims(rect)
    # One min/max per dimension over all boxes: no intermediate unions.
    return Rect(
        tuple(map(min, zip(*[r.lows for r in rects]))),
        tuple(map(max, zip(*[r.highs for r in rects]))),
    )
