"""Multidimensional Itemset Partitions (MIPs).

A MIP (Section 3.2) is the pairing of a closed frequent itemset with its
bounding box in the discretized cell grid: the box spans the single cell
``[v, v]`` on every attribute the itemset fixes and the full domain on
every attribute it leaves free.  The symbols ``D^P_k`` (box) and ``I^P_k``
(itemset) of the paper are the two faces of one :class:`MIP` object.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.itemsets.charm import ClosedItemset
from repro.itemsets.itemset import Itemset, attributes_of
from repro.rtree.geometry import Rect

__all__ = ["MIP", "mip_bounding_box"]


def mip_bounding_box(itemset: Itemset, cardinalities: Sequence[int]) -> Rect:
    """Bounding box of an itemset in the cell grid.

    Fixed attributes collapse to their cell; free attributes span their
    whole domain — exactly the construction of Figure 1 in the paper.
    """
    lows = [0] * len(cardinalities)
    highs = [c - 1 for c in cardinalities]
    for item in itemset:
        lows[item.attribute] = item.value
        highs[item.attribute] = item.value
    return Rect(tuple(lows), tuple(highs))


@dataclass(frozen=True)
class MIP:
    """One multidimensional itemset partition of the MIP-index.

    ``row`` is the MIP's position in the index's MIP tuple — the key into
    the vectorized per-MIP statistics (``-1`` for standalone MIPs).
    """

    itemset: Itemset
    box: Rect
    tidset: int
    global_count: int
    row: int = -1

    @classmethod
    def from_closed(
        cls,
        cfi: ClosedItemset,
        cardinalities: Sequence[int],
        row: int = -1,
    ) -> "MIP":
        return cls(
            itemset=cfi.items,
            box=mip_bounding_box(cfi.items, cardinalities),
            tidset=cfi.tidset,
            global_count=cfi.support_count,
            row=row,
        )

    @property
    def length(self) -> int:
        """Number of singleton items (the paper's ``C_I``)."""
        return len(self.itemset)

    @property
    def fixed_attributes(self) -> frozenset[int]:
        return attributes_of(self.itemset)
