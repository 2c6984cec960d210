"""The two-level MIP-index (Section 3.3, Figure 3).

Offline preprocessing in one call: run CHARM at the primary support
threshold and turn the closed frequent itemsets straight into the arrays
the index is — the ``(n_mips, d)`` fixed-value matrix (each row an
itemset and, with it, its cell-grid box), the global counts and the
packed tidsets — then pack the boxes into a
:class:`~repro.rtree.supported.SupportedRTree` and gather the statistics
the optimizer consumes.  The second level — the exact local support of a
stored itemset — is one AND + popcount over the table's packed item rows
(:class:`repro.kernels.FocalKernel`).  A :class:`MIP` object is only a
view of one row (:meth:`MIPIndex.mip`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.core.stats import IndexStatistics, gather_statistics
from repro.dataset.schema import Item
from repro.dataset.table import RelationalTable
from repro.errors import DataError
# Bound under the algorithm's name: ``benchmarks/e2e/trace.py`` times
# ``mipindex.charm`` as the offline mine.
from repro.itemsets.charm import closed_masks as charm
from repro.itemsets.itemset import Itemset, min_count_for
from repro.rtree.flat import DEFAULT_MAX_ENTRIES, FlatRTree
from repro.rtree.geometry import Rect
from repro.rtree.supported import SupportedRTree

__all__ = [
    "GenerationClock", "MIP", "MIPIndex", "assemble_index", "build_mip_index",
    "mine_mips", "mip_boxes",
]


class GenerationClock:
    """Mutable generation state carried by an (otherwise frozen) index.

    ``base`` seats the index in a monotone lineage: a recompacted index
    starts at the predecessor's final generation plus one, so stamps
    issued against any earlier index of the lineage can never collide
    with the new one's.  ``ticks`` counts the logical mutations since —
    delta-store appends and tombstone deletes, which leave the packed
    R-tree untouched but must invalidate caches, memoized profiles, and
    serving coalesce windows.
    """

    __slots__ = ("base", "ticks")

    def __init__(self, base: int = 0, ticks: int = 0):
        self.base = base
        self.ticks = ticks


@dataclass(frozen=True)
class MIP:
    """One multidimensional itemset partition (Section 3.2) as a view:
    the paper's ``I^P_k`` (itemset) and ``D^P_k`` (box) of MIP ``row``,
    built on demand by :meth:`MIPIndex.mip`."""

    itemset: Itemset
    box: Rect
    global_count: int
    row: int


@dataclass(frozen=True)
class MIPIndex:
    """The offline artifact of the COLARM framework, as arrays.

    MIP ``i`` is row ``i`` of ``stats.mip_fixed_values`` (its itemset and
    box), of ``global_counts`` and of ``mip_tidset_matrix`` — the packed
    ``(n_mips, words)`` tidsets the ELIMINATE / SUPPORTED-VERIFY
    qualification gathers rows of for one batched
    :func:`repro.kernels.and_count`.
    """

    table: RelationalTable
    primary_support: float
    rtree: SupportedRTree
    stats: IndexStatistics
    global_counts: np.ndarray      # (n_mips,) int64 — |D^G_I| per MIP
    mip_tidset_matrix: np.ndarray  # (n_mips, words) packed tidsets
    clock: GenerationClock = field(
        default_factory=GenerationClock, repr=False, compare=False
    )

    @property
    def n_mips(self) -> int:
        return len(self.global_counts)

    @property
    def flat_rtree(self) -> FlatRTree:
        """The packed R-tree's per-level arrays, packed by
        :func:`build_mip_index` or adopted from a snapshot by
        :mod:`repro.core.persistence`."""
        return self.rtree.flat

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self.table.schema.cardinalities()

    @property
    def generation(self) -> int:
        """The index's invalidation token.

        The lineage base plus the logical mutation ticks (delta
        appends/deletes, bumped via :meth:`bump_generation`).  Every
        mutation bumps it; the cache, the optimizer's plan choices, and
        the serving layer's coalescing all stamp their products with it
        so nothing computed against an older state is ever served against
        a newer one.
        """
        return self.clock.base + self.clock.ticks

    def bump_generation(self) -> int:
        """Record one logical mutation; returns the new generation.  Used
        by the delta store: query-visible state changed, so every
        generation-stamped product goes stale."""
        self.clock.ticks += 1
        return self.generation

    @property
    def tidset_words(self) -> int:
        """64-bit words per packed tidset row for this index's universe."""
        return kernels.n_words(self.table.n_records)

    def mip(self, row: int) -> MIP:
        """MIP ``row`` as an object, read off the index's arrays."""
        values = self.stats.mip_fixed_values[row]
        lows, highs = mip_boxes(values[None], self.cardinalities)
        return MIP(
            itemset=tuple(
                Item(a, int(values[a])) for a in np.flatnonzero(values >= 0).tolist()
            ),
            box=Rect(tuple(lows[0].tolist()), tuple(highs[0].tolist())),
            global_count=int(self.global_counts[row]),
            row=row,
        )


def mip_boxes(
    fixed_values: np.ndarray, cardinalities: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(lows, highs)`` int64 box corners of MIPs given their ``(N, d)``
    fixed values (``-1`` = free): a fixed attribute collapses to its
    cell, a free one spans its whole domain — Figure 1's construction."""
    fixed = fixed_values >= 0
    values = fixed_values.astype(np.int64)
    top = np.asarray(cardinalities, dtype=np.int64) - 1
    return np.where(fixed, values, 0), np.where(fixed, values, top)


def assemble_index(
    table: RelationalTable,
    primary_support: float,
    fixed_values: np.ndarray,
    mip_matrix: np.ndarray,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    rtree: SupportedRTree | None = None,
) -> MIPIndex:
    """The index over MIPs given as arrays — what build and load share.

    ``fixed_values`` is the ``(n_mips, d)`` itemset matrix and
    ``mip_matrix`` the matching packed tidsets.  ``rtree`` supplies a
    snapshot's stored tree instead of packing one; it is adopted only if
    it indexes exactly the MIPs' boxes and global counts
    (:meth:`repro.rtree.flat.FlatRTree.verify` raises ``IndexError_``).
    No request reads the tree: SEARCH answers from the statistics'
    per-value MIP bitmaps.
    """
    cardinalities = table.schema.cardinalities()
    global_counts = kernels.popcount_rows(mip_matrix)
    boxes = (*mip_boxes(fixed_values, cardinalities), global_counts)
    if rtree is None:
        rtree = SupportedRTree.build(*boxes, max_entries)
    else:
        rtree.flat.verify(*boxes)
    mip_matrix.setflags(write=False)
    global_counts.setflags(write=False)
    stats = gather_statistics(
        fixed_values,
        global_counts,
        cardinalities,
        table.n_records,
        primary_support,
        mip_matrix,
        item_matrix=table.item_matrix(),
    )
    return MIPIndex(
        table=table,
        primary_support=primary_support,
        rtree=rtree,
        stats=stats,
        global_counts=global_counts,
        mip_tidset_matrix=mip_matrix,
    )


def mine_mips(
    table: RelationalTable, primary_support: float
) -> tuple[np.ndarray, np.ndarray]:
    """CHARM at the primary support, as ``(fixed_values, mip_matrix)``:
    row ``i`` is the ``i``-th closed frequent itemset in ``(length,
    items)`` order, read straight from CHARM's item masks."""
    if table.n_records == 0:
        raise DataError("cannot build a MIP-index over an empty table")
    if not 0.0 < primary_support <= 1.0:
        raise DataError(
            f"primary_support must be in (0, 1], got {primary_support}"
        )
    schema = table.schema
    closed = charm(
        ((schema.item_id(item), tidset)
         for item, tidset in table.item_tidsets().items()),
        min_count_for(primary_support, table.n_records),
    )
    n_bytes = -(-schema.n_items // 8)
    bits = np.unpackbits(
        np.frombuffer(
            b"".join(mask.to_bytes(n_bytes, "little")
                     for mask in closed.values()),
            dtype=np.uint8,
        ).reshape(len(closed), n_bytes),
        axis=1, bitorder="little",
    )
    rows, ids = np.nonzero(bits)
    attribute_of = np.repeat(
        np.arange(schema.n_attributes), schema.cardinalities()
    )[ids]
    fixed = np.full((len(closed), schema.n_attributes), -1, dtype=np.int32)
    fixed[rows, attribute_of] = ids - np.asarray(schema.item_bases)[attribute_of]
    # (length, items) order: among equal lengths the itemset whose first
    # differing attribute holds the smaller value comes first, an unfixed
    # attribute (-1, read as the largest uint32) after every value.
    order = np.lexsort(
        (*fixed.view(np.uint32).T[::-1], (fixed >= 0).sum(axis=1))
    )
    tidsets = list(closed)
    matrix = kernels.pack_many(
        [tidsets[i] for i in order.tolist()], kernels.n_words(table.n_records)
    )
    return fixed[order], matrix


def build_mip_index(
    table: RelationalTable,
    primary_support: float,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> MIPIndex:
    """Run the offline preprocessing phase and return the MIP-index.

    ``primary_support`` is the domain-specific floor of footnote 2: queries
    are answered exactly for any ``minsupp * |D^Q| >= primary_support * |D|``;
    itemsets below the floor are only reachable through the ARM plan.
    """
    return assemble_index(
        table,
        primary_support,
        *mine_mips(table, primary_support),
        max_entries=max_entries,
    )
