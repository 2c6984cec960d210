"""The R-tree: per-level structure-of-arrays layout + vectorized traversal.

COLARM's index (Section 4.3) is a *packed* R-tree: built once offline over
the full set of MIP bounding boxes and never inserted into — every
mutation of the system goes through the main+delta store, and a fold is a
fresh pack.  So the tree is one immutable data format, produced by
:mod:`repro.rtree.packing` and read by a **vectorized frontier
expansion**:

* per level, the entries of all nodes live in contiguous numpy arrays —
  ``lows[n_entries, n_dims]``, ``highs``, ``counts`` — grouped by owning
  node through a CSR-style ``node_offsets`` array;
* a window query keeps a *frontier* of node indices per level; one batched
  interval-overlap test (``all(q_lo <= highs) & all(lows <= q_hi)``) plus
  one batched ``counts >= min_count`` mask decides every entry of the
  frontier's nodes at once;
* the child of entry ``j`` at an internal level is node ``j`` of the level
  below (the **child-order invariant**), so no child-pointer array is
  needed and the matched-entry index vector *is* the next frontier;
* an internal entry's box and count are the MBR and the maximum count of
  the node beneath it (Lemma 4.4 makes that count an upper bound on every
  local support in the subtree, which is what lets ``min_count`` prune
  whole subtrees).

``nodes_visited`` is exact, not estimated — a recursive descent reads the
root plus the child of every internal entry that passes both filters, so
the traversal returns ``1 + sum(matched internal entries per level)``.

The leaf payload is one int64 vector, ``payload_rows``: leaf slot ``j``
indexes input box ``payload_rows[j]`` (a MIP row);
:meth:`FlatRTree.verify` checks that a tree indexes exactly the boxes
it was packed from.  The request path reads no tree: SEARCH answers from
the index statistics' per-value MIP bitmaps
(:meth:`repro.core.stats.IndexStatistics.region_bits`), the tests hold
it to this traversal, and an index packs its tree only when asked
(:attr:`repro.core.mipindex.MIPIndex.rtree`).  No snapshot stores one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import IndexError_
from repro.rtree.geometry import Rect

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "FlatHits",
    "FlatLevel",
    "FlatRTree",
]

DEFAULT_MAX_ENTRIES = 8


@dataclass(frozen=True)
class FlatHits:
    """Array-native result of a window search.

    ``slots`` are leaf-table indices (leaf-array order), ``rows`` the
    indexed boxes' input rows (MIP ids) and ``counts`` their global support
    counts.  ``nodes_visited`` is the number of nodes the traversal read
    (held exactly to the test oracle).
    """

    slots: np.ndarray          # (k,) intp — leaf-table slot per hit
    rows: np.ndarray           # (k,) int64 — payload rows (MIP ids)
    counts: np.ndarray         # (k,) int64 — global support counts
    nodes_visited: int

    def __len__(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class FlatLevel:
    """One tree level in structure-of-arrays form.

    Node ``i`` of the level owns the contiguous entry slice
    ``node_offsets[i] : node_offsets[i + 1]``; ``lows``/``highs``/``counts``
    are per-entry.  For internal levels, entry ``j`` parents node ``j`` of
    the level below (child-order invariant); for the leaf level, entry
    ``j`` is slot ``j`` of the owning tree's ``payload_rows``.
    """

    node_offsets: np.ndarray  # (n_nodes + 1,) intp, CSR over entries
    lows: np.ndarray          # (n_entries, n_dims) int64
    highs: np.ndarray         # (n_entries, n_dims) int64
    counts: np.ndarray        # (n_entries,) int64

    @property
    def n_nodes(self) -> int:
        return len(self.node_offsets) - 1

    @property
    def n_entries(self) -> int:
        return len(self.counts)

    def node_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node MBR ``(lows, highs)``: segment min/max of its entries."""
        starts = self.node_offsets[:-1]
        return (
            np.minimum.reduceat(self.lows, starts, axis=0),
            np.maximum.reduceat(self.highs, starts, axis=0),
        )

    def node_max_counts(self) -> np.ndarray:
        """Per-node maximum entry count (0 for the empty tree's root)."""
        if not self.n_entries:
            return np.zeros(self.n_nodes, dtype=np.int64)
        return np.maximum.reduceat(self.counts, self.node_offsets[:-1])


def _gather_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], ends[k])`` for all k, vectorized.

    The frontier-expansion gather: given the CSR entry ranges of the
    frontier's nodes, produce the index vector of all their entries with
    two cumulative sums instead of a Python loop over nodes.
    """
    lens = ends - starts
    keep = lens > 0
    if not keep.all():
        starts, lens = starts[keep], lens[keep]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    out = np.ones(total, dtype=np.intp)
    out[0] = starts[0]
    if len(starts) > 1:
        bounds = np.cumsum(lens[:-1])
        out[bounds] = starts[1:] - (starts[:-1] + lens[:-1]) + 1
    return np.cumsum(out)


class FlatRTree:
    """An immutable packed R-tree over integer cell boxes."""

    def __init__(
        self,
        n_dims: int,
        levels: Sequence[FlatLevel],
        payload_rows: np.ndarray,
    ):
        if not levels:
            raise IndexError_("an R-tree needs at least the leaf level")
        if levels[-1].n_entries != len(payload_rows):
            raise IndexError_(
                f"leaf level has {levels[-1].n_entries} entries but "
                f"payload_rows holds {len(payload_rows)}"
            )
        if levels[0].n_nodes != 1:
            raise IndexError_(
                f"the top level holds {levels[0].n_nodes} nodes, not one root"
            )
        for upper, lower in zip(levels, levels[1:]):
            if upper.n_entries != lower.n_nodes:
                raise IndexError_(
                    "child-order invariant violated: "
                    f"{upper.n_entries} internal entries vs "
                    f"{lower.n_nodes} nodes below"
                )
        self.n_dims = n_dims
        self.levels = tuple(levels)       # root level first, leaf level last
        self.payload_rows = payload_rows  # (len(self),) int64

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self.levels[-1].n_entries

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is a single leaf)."""
        return len(self.levels)

    def nbytes(self) -> int:
        """Total array payload of the level arrays (layout footprint)."""
        return sum(
            int(lv.node_offsets.nbytes + lv.lows.nbytes
                + lv.highs.nbytes + lv.counts.nbytes)
            for lv in self.levels
        )

    def verify(
        self, lows: np.ndarray, highs: np.ndarray, counts: np.ndarray
    ) -> None:
        """Raise unless this tree indexes exactly the given boxes.

        Leaf slot ``j`` must hold box ``payload_rows[j]`` with its count,
        every input box must sit in exactly one slot, and every internal
        entry must carry the MBR and maximum count of the node beneath it —
        together the conditions under which a window search returns exactly
        the overlapping (and, with ``min_count``, sufficiently supported)
        input boxes.  Structure alone does not show that: a tree whose
        counts were zeroed is well-formed and silently prunes everything.
        """
        rows = self.payload_rows
        n = len(counts)
        if (
            len(rows) != n
            or (n and (rows.min() < 0 or rows.max() >= n))
            or len(np.unique(rows)) != n
        ):
            raise IndexError_(
                f"payload_rows is not a bijection onto the {n} indexed boxes"
            )
        leaf = self.levels[-1]
        if not (
            np.array_equal(leaf.lows, lows[rows])
            and np.array_equal(leaf.highs, highs[rows])
            and np.array_equal(leaf.counts, counts[rows])
        ):
            raise IndexError_("leaf entries disagree with the indexed boxes")
        for depth in range(self.height - 1):
            upper, lower = self.levels[depth], self.levels[depth + 1]
            node_lows, node_highs = lower.node_boxes()
            if not (
                np.array_equal(upper.lows, node_lows)
                and np.array_equal(upper.highs, node_highs)
                and np.array_equal(upper.counts, lower.node_max_counts())
            ):
                raise IndexError_(
                    f"level {depth} entries are not the aggregates of "
                    "their child nodes"
                )

    # -- search ------------------------------------------------------------

    def search_hits(self, query: Rect, min_count: int | None = None) -> FlatHits:
        """All indexed boxes intersecting ``query``, as contiguous arrays.

        With ``min_count`` set, entries whose count falls below it are
        skipped and their subtrees never descended — the SUPPORTED-SEARCH
        filter: an entry's count upper-bounds the local support of
        everything beneath it (Lemma 4.4), so pruned subtrees cannot
        contain qualifying itemsets.
        """
        if query.n_dims != self.n_dims:
            raise IndexError_(
                f"query has {query.n_dims} dims, tree has {self.n_dims}"
            )
        q_lo = np.asarray(query.lows, dtype=np.int64)
        q_hi = np.asarray(query.highs, dtype=np.int64)
        visited = 1  # the root is always read
        frontier = np.zeros(1, dtype=np.intp)
        for level in self.levels:
            cand = _gather_ranges(
                level.node_offsets[frontier], level.node_offsets[frontier + 1]
            )
            if cand.size == 0:
                slots = cand
                break
            mask = np.logical_and(
                (level.lows[cand] <= q_hi).all(axis=1),
                (q_lo <= level.highs[cand]).all(axis=1),
            )
            if min_count is not None:
                mask &= level.counts[cand] >= min_count
            slots = cand[mask]
            if level is not self.levels[-1]:
                # The child of every matched internal entry is read next.
                visited += int(slots.size)
                frontier = slots
        return FlatHits(
            slots=slots,
            rows=self.payload_rows[slots],
            counts=self.levels[-1].counts[slots],
            nodes_visited=visited,
        )
