"""The Supported R-tree (COLARM Section 4.3, Figure 6).

A packed R-tree over MIP bounding boxes whose leaf entries carry the global
support count ``|D^G_I|`` of their itemset and whose internal entries carry
the maximum count of their subtree.  Lemma 4.4 — ``|D^Q_I| <= |D^G_I|`` —
makes that count an upper bound on any local support, so a window search
carrying ``min_count = ceil(minsupp * |D^Q|)`` prunes entries *and whole
subtrees* that cannot qualify, without any record-level work.
"""

from __future__ import annotations

import numpy as np

from repro.rtree.flat import DEFAULT_MAX_ENTRIES, FlatHits, FlatRTree, LevelStat
from repro.rtree.geometry import Rect
from repro.rtree.packing import pack_hilbert

__all__ = ["SupportedRTree"]


class SupportedRTree:
    """Support-annotated packed R-tree with a plain and a filtered search."""

    def __init__(self, flat: FlatRTree, max_entries: int):
        self.flat = flat
        self.max_entries = max_entries  # the fan-out the tree was packed at

    @classmethod
    def build(
        cls,
        lows: np.ndarray,
        highs: np.ndarray,
        counts: np.ndarray,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "SupportedRTree":
        """Pack ``(N, d)`` box corners with their ``(N,)`` global counts.

        Bulk-loaded in Hilbert order (Kamel & Faloutsos, the paper's
        choice); a hit's ``rows`` entry is the box's input position.
        """
        return cls(pack_hilbert(lows, highs, counts, max_entries), max_entries)

    def __len__(self) -> int:
        return len(self.flat)

    @property
    def height(self) -> int:
        return self.flat.height

    def level_stats(self) -> list[LevelStat]:
        """Per-level node counts and average MBR extents, leaf level first
        (cost-model input).  The empty tree has no boxes to average."""
        if not len(self):
            return []
        stats = []
        for level, lv in enumerate(reversed(self.flat.levels)):
            node_lows, node_highs = lv.node_boxes()
            extents = (node_highs - node_lows + 1).mean(axis=0, dtype=np.float64)
            stats.append(
                LevelStat(
                    level=level,
                    n_nodes=lv.n_nodes,
                    avg_extents=tuple(float(x) for x in extents),
                )
            )
        return stats

    def level_max_counts(self) -> list[np.ndarray]:
        """Sorted maximum subtree count of every node, per level, leaf
        level first — the fraction of a level's nodes surviving the
        supported filter at any threshold is one binary search away."""
        return [
            np.sort(lv.node_max_counts()) for lv in reversed(self.flat.levels)
        ]

    def search_arrays(
        self, query: Rect, min_count: int | None = None
    ) -> FlatHits:
        """Window search — SEARCH, or SUPPORTED-SEARCH with ``min_count``.

        With ``min_count`` only entries with global count >= ``min_count``
        are returned; subtrees whose maximum count falls short are never
        descended.
        """
        return self.flat.search_hits(query, min_count=min_count)
