"""The two-level MIP-index (Section 3.3, Figure 3).

Offline preprocessing in one call: run CHARM at the primary support
threshold, turn every closed frequent itemset into a
:class:`~repro.core.mip.MIP`, pack the boxes (with their global counts)
into a :class:`~repro.rtree.supported.SupportedRTree`, and gather the
index statistics the optimizer consumes.  The second level's role — the
exact local support of any stored itemset — is served by the table's
packed item rows and ``stats.mip_fixed_values`` (an itemset per row):
one AND + popcount through :class:`repro.kernels.FocalKernel`, so no
closed IT-tree is built or carried.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro import kernels
from repro.core.mip import MIP
from repro.core.stats import IndexStatistics, gather_statistics
from repro.dataset.table import RelationalTable
from repro.errors import DataError
from repro.itemsets.charm import ClosedItemset, charm
from repro.rtree.flat import DEFAULT_MAX_ENTRIES, FlatRTree
from repro.rtree.supported import SupportedRTree

__all__ = ["GenerationClock", "MIPIndex", "build_mip_index"]


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
class MIPIndex:
    """The offline artifact of the COLARM framework."""

    table: RelationalTable
    primary_support: float
    mips: tuple[MIP, ...]
    rtree: SupportedRTree
    stats: IndexStatistics
    clock: GenerationClock = field(
        default_factory=GenerationClock, repr=False, compare=False
    )

    @property
    def n_mips(self) -> int:
        return len(self.mips)

    @property
    def flat_rtree(self) -> FlatRTree:
        """The packed R-tree's per-level arrays — what SEARCH and
        SUPPORTED-SEARCH traverse, packed by :func:`build_mip_index` or
        adopted from a snapshot by :mod:`repro.core.persistence`."""
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

    @cached_property
    def mip_tidset_matrix(self) -> np.ndarray:
        """Packed ``(n_mips, words)`` matrix of every MIP's tidset.

        Row ``i`` is ``kernels.pack(mips[i].tidset)``; the ELIMINATE /
        SUPPORTED-VERIFY qualification batches ``|t(I) ∩ D^Q|`` for all
        candidates with one :func:`repro.kernels.and_count` call over a
        row-gather of this matrix.  ``cached_property`` stores the matrix
        in the instance ``__dict__`` (bypassing the frozen dataclass), so
        indexes rebuilt by :mod:`repro.core.persistence` regain it lazily.
        """
        return _pack_mip_tidsets(self.mips, self.tidset_words)


def _mip_boxes(
    mips: Sequence[MIP], cardinalities: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lows, highs, global_counts)`` of the MIPs, row ``i`` = MIP ``i`` —
    the ``(N, d)`` box arrays the R-tree is packed over."""
    shape = (len(mips), len(cardinalities))
    return (
        np.array([m.box.lows for m in mips], dtype=np.int64).reshape(shape),
        np.array([m.box.highs for m in mips], dtype=np.int64).reshape(shape),
        np.array([m.global_count for m in mips], dtype=np.int64),
    )


def _pack_mip_tidsets(mips: Sequence[MIP], words: int) -> np.ndarray:
    matrix = kernels.pack_many([mip.tidset for mip in mips], words)
    matrix.setflags(write=False)
    return matrix


def build_mip_index(
    table: RelationalTable,
    primary_support: float,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    closed: Sequence[ClosedItemset] | None = None,
    rtree: SupportedRTree | None = None,
) -> MIPIndex:
    """Run the offline preprocessing phase and return the MIP-index.

    ``primary_support`` is the domain-specific floor of footnote 2: queries
    are answered exactly for any ``minsupp * |D^Q| >= primary_support * |D|``;
    itemsets below the floor are only reachable through the ARM plan.

    ``closed`` supplies precomputed closed frequent itemsets (in row
    order) instead of mining them — the persistence layer's fast load
    path reconstructs them from a trusted snapshot, where re-running the
    miner would only rediscover what the file already states.  ``rtree``
    likewise supplies a snapshot's stored tree instead of packing one, so
    the statistics describe the tree that will be searched; it is adopted
    only if it indexes exactly the MIPs' boxes and global counts
    (:meth:`repro.rtree.flat.FlatRTree.verify` raises ``IndexError_``).
    """
    if table.n_records == 0:
        raise DataError("cannot build a MIP-index over an empty table")
    if not 0.0 < primary_support <= 1.0:
        raise DataError(
            f"primary_support must be in (0, 1], got {primary_support}"
        )
    if closed is None:
        closed = charm(table.item_tidsets(), table.n_records, primary_support)
    cardinalities = table.schema.cardinalities()
    mips = tuple(
        MIP.from_closed(cfi, cardinalities, row=i)
        for i, cfi in enumerate(closed)
    )
    boxes = _mip_boxes(mips, cardinalities)
    if rtree is None:
        rtree = SupportedRTree.build(*boxes, max_entries)
    else:
        rtree.flat.verify(*boxes)
    # Packed once: the statistics count through it, and the index keeps it
    # so the first online ELIMINATE does not pay the packing cost.
    mip_matrix = _pack_mip_tidsets(mips, kernels.n_words(table.n_records))
    stats = gather_statistics(
        mips,
        rtree,
        cardinalities,
        table.n_records,
        primary_support,
        mip_matrix,
        item_matrix=table.item_matrix(),
    )
    index = MIPIndex(
        table=table,
        primary_support=primary_support,
        mips=mips,
        rtree=rtree,
        stats=stats,
    )
    index.__dict__["mip_tidset_matrix"] = mip_matrix
    return index
