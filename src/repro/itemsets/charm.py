"""CHARM closed frequent itemset mining (Zaki & Hsiao, SDM 2002).

CHARM explores itemset-tidset (IT) pairs depth-first and applies four
tidset-relation properties to jump directly between closed sets:

1. ``t(Xi) == t(Xj)`` — Xj is fused into Xi (same closure), Xj removed;
2. ``t(Xi) ⊂ t(Xj)``  — Xi is extended by Xj (Xi's closure contains Xj),
   Xj kept for its own branch;
3. ``t(Xi) ⊃ t(Xj)``  — ``Xi ∪ Xj`` (tidset ``t(Xj)``) becomes a child of
   Xi, Xj removed from the current level;
4. otherwise           — ``Xi ∪ Xj`` becomes a child of Xi if frequent.

A hash on tidsets provides the subsumption check that keeps only closed
sets.  This is the offline miner that populates the MIP-index (Section 3.2
of the COLARM paper) and the miner the ARM plan runs on focal subsets.

The search itself (:func:`closed_masks`) runs in one integer item space:
an itemset is a Python-int bitmask over item ids, a tidset a Python-int
bitmask over records, so every step of the four properties is one
big-int operation.  :func:`charm` is the edge that speaks ``Item``
tuples.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from operator import attrgetter

from repro import tidset as ts
from repro.dataset.schema import Item
from repro.itemsets.itemset import Itemset, min_count_for

__all__ = ["ClosedItemset", "charm", "closed_masks"]


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


class _Node:
    """An IT-pair during the search; ``items`` grows via properties 1-2."""

    __slots__ = ("items", "tidset", "count")

    def __init__(self, items: int, tidset: int, count: int):
        self.items = items
        self.tidset = tidset
        self.count = count


_BY_COUNT = attrgetter("count")


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


def closed_masks(
    item_tidsets: Iterable[tuple[int, int]], min_count: int
) -> dict[int, int]:
    """CHARM over integer ids: ``{tidset: item mask}`` of every closed
    itemset supported by at least ``min_count`` records.

    ``item_tidsets`` yields ``(item id, tidset)`` pairs; bit ``i`` of an
    item mask is item id ``i``.  Per tidset only the largest item set
    survives (two itemsets with equal tidsets share a closure and are
    union-compatible by construction).
    """
    roots = [
        _Node(1 << item, tidset, count)
        for item, tidset in item_tidsets
        if (count := tidset.bit_count()) >= min_count
    ]
    closed: dict[int, int] = {}
    _charm_extend(roots, min_count, closed)
    return closed


def _charm_extend(
    nodes: "list[_Node | None]", min_count: int, closed: dict[int, int]
) -> None:
    # Zaki & Hsiao process classes in increasing support order so that the
    # subset-tidset properties (1 and 2) fire as often as possible.
    nodes.sort(key=_BY_COUNT)
    for i, node in enumerate(nodes):
        if node is None:  # fused or re-parented by an earlier node
            continue
        ti = node.tidset
        items = node.items
        children: list[_Node] = []
        for j in range(i + 1, len(nodes)):
            other = nodes[j]
            if other is None:
                continue
            tj = other.tidset
            tij = ti & tj
            if tij == ti:  # properties 1 and 2: t(Xi) within t(Xj)
                items |= other.items
                if tij == tj:  # property 1: equal tidsets, Xj is fused
                    nodes[j] = None
            elif tij == tj:  # property 3: t(Xi) superset of t(Xj)
                children.append(_Node(other.items, tj, other.count))
                nodes[j] = None
            elif (count := tij.bit_count()) >= min_count:  # property 4
                children.append(_Node(other.items, tij, count))
        if children:
            # A child's tidset lies inside the node's, so every item of the
            # node — also the ones properties 1-2 added after the child was
            # made — belongs to the child's closure.
            for child in children:
                child.items |= items
            _charm_extend(children, min_count, closed)
        closed[ti] = closed.get(ti, 0) | items
