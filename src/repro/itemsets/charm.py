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

The search (:func:`closed_masks`) runs in one integer item space: an
itemset is a Python-int bitmask over item ids, a tidset a Python-int
bitmask over records, so every step of the four properties is one
big-int operation.  Its callers read the masks straight into arrays.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter

__all__ = ["closed_masks"]


class _Node:
    """An IT-pair during the search; ``items`` grows via properties 1-2."""

    __slots__ = ("items", "tidset", "count")

    def __init__(self, items: int, tidset: int, count: int):
        self.items = items
        self.tidset = tidset
        self.count = count


_BY_COUNT = attrgetter("count")


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
