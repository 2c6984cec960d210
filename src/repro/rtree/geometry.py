"""n-dimensional rectangles over discrete cell grids.

COLARM's multidimensional space is the grid of discretized cells (Section
2.1): dimension ``i`` has integer coordinates ``0 .. cardinality_i - 1``.  A
:class:`Rect` is a closed integer box ``[lo_i, hi_i]`` per dimension — an
itemset's bounding box spans a single cell on the attributes it fixes and
the whole domain elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DataError

__all__ = ["Rect"]


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

    @property
    def n_dims(self) -> int:
        return len(self.lows)
