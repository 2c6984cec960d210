"""Bulk loading (packing) of R-trees.

COLARM builds its R-tree once, offline, over the full set of MIP bounding
boxes, so it uses the packing scheme of Kamel & Faloutsos [11]: sort the
rectangles along a Hilbert curve through their centers, fill leaves to
capacity in that order, and repeat level by level — achieving ~100% space
utilization.  A Sort-Tile-Recursive (STR, Leutenegger et al.) variant is
provided as an alternative; both produce trees that share
:class:`~repro.rtree.rtree.RTree`'s search machinery.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import IndexError_
from repro.rtree.geometry import Rect
from repro.rtree.hilbert import bits_needed, hilbert_indices
from repro.rtree.node import Entry, Node
from repro.rtree.rtree import DEFAULT_MAX_ENTRIES, RTree

__all__ = ["pack_hilbert", "pack_str"]

#: One rectangle to index: (box, payload, count).
PackInput = tuple[Rect, Any, int]


def pack_hilbert(
    n_dims: int,
    items: Sequence[PackInput],
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> RTree:
    """Bulk-load a fully packed R-tree via Hilbert-order tiling."""
    _check_items(n_dims, items)
    if not items:
        return _pack_ordered(n_dims, items, max_entries)
    lows = np.array([rect.lows for rect, _, _ in items], dtype=np.int64)
    highs = np.array([rect.highs for rect, _, _ in items], dtype=np.int64)
    # Centers are doubled (lo + hi) to stay integral.
    bits = bits_needed(int(highs.max()) * 2 + 1)
    keys = hilbert_indices(lows + highs, bits)
    order = sorted(range(len(items)), key=keys.__getitem__)
    return _pack_ordered(n_dims, [items[i] for i in order], max_entries)


def pack_str(
    n_dims: int,
    items: Sequence[PackInput],
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> RTree:
    """Bulk-load via Sort-Tile-Recursive: tile centers dimension by dimension."""
    _check_items(n_dims, items)
    ordered = _str_order(list(items), dim=0, n_dims=n_dims, capacity=max_entries)
    return _pack_ordered(n_dims, ordered, max_entries)


def _str_order(
    items: list[PackInput], dim: int, n_dims: int, capacity: int
) -> list[PackInput]:
    """Recursive STR tiling order of the items' centers."""
    if dim >= n_dims - 1 or len(items) <= capacity:
        return sorted(items, key=lambda it: it[0].center()[dim:])
    items = sorted(items, key=lambda it: it[0].center()[dim])
    n_leaves = max(1, -(-len(items) // capacity))
    remaining_dims = n_dims - dim
    n_slabs = max(1, round(n_leaves ** (1.0 / remaining_dims)))
    slab_size = max(1, -(-len(items) // n_slabs))
    ordered: list[PackInput] = []
    for start in range(0, len(items), slab_size):
        slab = items[start:start + slab_size]
        ordered.extend(_str_order(slab, dim + 1, n_dims, capacity))
    return ordered


def _pack_ordered(
    n_dims: int, ordered: Sequence[PackInput], max_entries: int
) -> RTree:
    """Fill leaves to capacity in the given order, then pack upward."""
    tree = RTree(n_dims=n_dims, max_entries=max_entries)
    if not ordered:
        return tree

    nodes = []
    for start in range(0, len(ordered), max_entries):
        leaf = Node(level=0)
        for rect, payload, count in ordered[start:start + max_entries]:
            leaf.entries.append(Entry(rect=rect, payload=payload, count=count))
        nodes.append(leaf)

    level = 0
    while len(nodes) > 1:
        level += 1
        parents = []
        for start in range(0, len(nodes), max_entries):
            parent = Node(level=level)
            for child in nodes[start:start + max_entries]:
                parent.entries.append(
                    Entry(rect=child.mbr(), child=child, count=child.max_count())
                )
            parents.append(parent)
        nodes = parents

    tree._root = nodes[0]
    tree._size = len(ordered)
    # A packed tree is born unmutated: flat snapshots compiled from it
    # (repro.rtree.flat) stay current until the first insert/delete.
    tree.mutations = 0
    return tree


def _check_items(n_dims: int, items: Sequence[PackInput]) -> None:
    for rect, _, _ in items:
        if rect.n_dims != n_dims:
            raise IndexError_(
                f"rect has {rect.n_dims} dims, expected {n_dims}"
            )
