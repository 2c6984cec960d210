"""CHARM's closed itemsets as ``Item`` tuples, kept as a test reference.

``src/`` mines in the integer item space
(:func:`repro.itemsets.charm.closed_masks`) and the offline build writes
the item masks straight into the MIP-index's arrays
(:func:`repro.core.mipindex.mine_mips`).  :func:`charm` is the obvious
edge over the same search: each closed mask read back into an itemset of
``Item`` tuples with its tidset, sorted by ``(length, items)`` — the row
order the build keeps, and what the tests hold the arrays to.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro import tidset as ts
from repro.dataset.schema import Item
from repro.itemsets.charm import closed_masks
from repro.itemsets.itemset import Itemset, min_count_for

__all__ = ["ClosedItemset", "charm"]


@dataclass(frozen=True)
class ClosedItemset:
    """A closed frequent itemset with its exact tidset."""

    items: Itemset
    tidset: int

    @property
    def support_count(self) -> int:
        return ts.count(self.tidset)

    def support(self, n_records: int) -> float:
        return self.support_count / n_records if n_records else 0.0

    @property
    def length(self) -> int:
        """Number of singleton items (the paper's ``C_I``, Lemma 4.3)."""
        return len(self.items)


def charm(
    item_tidsets: Mapping[Item, int],
    n_records: int,
    minsupp: float,
) -> list[ClosedItemset]:
    """Mine all closed frequent itemsets at relative support ``minsupp``.

    Returns closed itemsets sorted by (length, items).  The result is
    exactly the set of closure-distinct tidsets among frequent itemsets:
    for every frequent itemset X there is exactly one returned set with
    tidset ``t(X)`` that contains X (its closure).
    """
    # Bit ``b`` of an item mask is the ``b``-th key in sort order, so the
    # set bits of a closed mask read back as an already sorted itemset.
    keys = sorted(item_tidsets)
    closed = closed_masks(
        ((b, item_tidsets[key]) for b, key in enumerate(keys)),
        min_count_for(minsupp, n_records),
    )
    found = []
    for tidset, items in closed.items():
        itemset = []
        while items:  # lowest set bit first: the itemset comes out sorted
            low = items & -items
            itemset.append(keys[low.bit_length() - 1])
            items ^= low
        found.append((len(itemset), tuple(itemset), tidset))
    found.sort()  # (length, items): itemsets are distinct, tidsets never compare
    return [ClosedItemset(itemset, tidset) for _, itemset, tidset in found]
