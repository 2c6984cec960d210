"""Bulk loading (packing) of the R-tree.

COLARM builds its R-tree once, offline, over the full set of MIP bounding
boxes, so it uses the packing scheme of Kamel & Faloutsos [11]: sort the
rectangles along a Hilbert curve through their centers, fill leaves to
capacity in that order, and repeat level by level — achieving ~100% space
utilization.  The packer works on the ``(N, d)`` box arrays and emits the
per-level arrays of :class:`~repro.rtree.flat.FlatRTree` directly: the
leaf level is the input in Hilbert order, and each level above holds one
entry per node below — its MBR and maximum count.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexError_
from repro.rtree.flat import DEFAULT_MAX_ENTRIES, FlatLevel, FlatRTree
from repro.rtree.hilbert import bits_needed, hilbert_indices

__all__ = ["pack_hilbert"]


def pack_hilbert(
    lows: np.ndarray,
    highs: np.ndarray,
    counts: np.ndarray,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> FlatRTree:
    """Bulk-load a fully packed R-tree via Hilbert-order tiling.

    ``lows``/``highs`` are ``(N, d)`` integer box corners and ``counts``
    the ``(N,)`` per-box counts; leaf slot ``j`` of the result indexes
    input box ``payload_rows[j]``.
    """
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if max_entries < 2:
        raise IndexError_("max_entries must be >= 2")
    if lows.ndim != 2 or lows.shape[1] < 1 or highs.shape != lows.shape:
        raise IndexError_(
            f"box corners must be two equal (N, d) arrays, got "
            f"{lows.shape} and {highs.shape}"
        )
    if counts.shape != lows.shape[:1]:
        raise IndexError_(
            f"{len(lows)} boxes but counts has shape {counts.shape}"
        )
    order = np.arange(len(lows), dtype=np.int64)
    if len(lows):
        # Centers are doubled (lo + hi) to stay integral.  The keys are
        # Python ints (``bits * d`` routinely exceeds 64), so the stable
        # sort — equal keys keep input order — runs on the list.
        bits = bits_needed(int(highs.max()) * 2 + 1)
        keys = hilbert_indices(lows + highs, bits)
        order = np.asarray(
            sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64
        )
    levels = [_level(lows[order], highs[order], counts[order], max_entries)]
    while levels[0].n_nodes > 1:
        below = levels[0]
        levels.insert(
            0,
            _level(*below.node_boxes(), below.node_max_counts(), max_entries),
        )
    order.setflags(write=False)
    return FlatRTree(n_dims=lows.shape[1], levels=levels, payload_rows=order)


def _level(
    lows: np.ndarray, highs: np.ndarray, counts: np.ndarray, max_entries: int
) -> FlatLevel:
    """One level over the given entries: nodes of ``max_entries`` in order."""
    n = len(counts)
    # The empty tree is one root node owning no entries: offsets [0, 0].
    offsets = np.append(
        np.arange(0, max(n, 1), max_entries, dtype=np.intp), np.intp(n)
    )
    for arr in (offsets, lows, highs, counts):
        arr.setflags(write=False)
    return FlatLevel(offsets, lows, highs, counts)
