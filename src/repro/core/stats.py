"""Precomputed index statistics (the cost model's inputs).

The offline preprocessing phase stores, next to the MIP-index itself, the
aggregate statistics the COLARM optimizer needs to evaluate the six cost
formulae in constant time at query time (Section 3.1): R-tree level
profiles, the distribution of global support counts, the distribution of
itemset lengths, and per-attribute fixing probabilities.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.dataset.schema import Item
from repro.itemsets.itemset import min_count_for
from repro.kernels import and_count, popcount_rows
from repro.rtree.flat import LevelStat
from repro.rtree.supported import SupportedRTree

__all__ = ["LevelCountProfile", "IndexStatistics"]

#: Rule-generation work per itemset is exponential in its length; the cost
#: model caps the 2**length factor so one pathological itemset cannot swamp
#: the estimate.
_MAX_POW2_LENGTH = 16


@dataclass(frozen=True)
class LevelCountProfile:
    """Sorted max-subtree-counts of one R-tree level.

    Lets the optimizer compute, by binary search, the exact fraction of
    level-``j`` nodes that survive the supported filter at any threshold.
    """

    level: int
    sorted_max_counts: np.ndarray

    def fraction_at_least(self, min_count: int) -> float:
        n = len(self.sorted_max_counts)
        if n == 0:
            return 0.0
        idx = int(np.searchsorted(self.sorted_max_counts, min_count, side="left"))
        return (n - idx) / n


@dataclass(frozen=True)
class IndexStatistics:
    """Aggregates describing the dataset, the MIPs and the R-tree.

    Beyond the scalar aggregates the paper's formulae use, per-MIP
    profiles make the optimizer's cardinality estimates *data-aware*,
    each laid out the way its reader walks it:

    * ``mip_fixed_values[i, a]`` — the value MIP ``i`` fixes attribute ``a``
      to, or ``-1`` when the attribute is free.  MIP-major, MIP order:
      SEARCH, ELIMINATE and the delta store gather its *rows*.

    The rest has one reader, the cardinality pass of
    :mod:`repro.core.costs`, and is in **support order** — position ``p``
    is the MIP with the ``p``-th largest global count (ties by row), so
    the MIPs passing the supported filter are a *prefix* — and rebuilt,
    never persisted, at build, fold and load:

    * ``mip_value_bits[a][v]`` / ``mip_free_bits[a]`` — N-bit ints, bit
      ``p`` set when MIP ``p`` fixes attribute ``a`` to ``v`` / leaves it
      free: overlap and containment are ORs, ANDs and a ``bit_count()``;
    * ``mip_log_counts[p]`` — log of the global count (the counts are
      ``sorted_global_counts`` read backwards), ``mip_fanout[p]`` the
      capped ``2**length`` rule-generation factor;
    * ``item_mip_counts[j, p]`` — ``|t(I_p) ∩ t(item_j)|``, the MIP's
      support inside each single-item subset (rows by ``item_rows``),
      the basis of the local-support upper bound behind ELIMINATE's
      estimated output.  Item-major: the pass sums a few items' rows.
    """

    n_records: int
    n_attributes: int
    cardinalities: tuple[int, ...]
    n_mips: int
    avg_box_extents: tuple[float, ...]      # avg MIP box extent per dim, cells
    level_stats: tuple[LevelStat, ...]       # R-tree level profile
    level_counts: tuple[LevelCountProfile, ...]
    sorted_global_counts: np.ndarray         # of all MIPs, ascending
    length_histogram: dict[int, int]         # itemset length -> # MIPs
    attr_fix_prob: tuple[float, ...]         # P(MIP fixes attribute d)
    primary_support: float
    mip_fixed_values: np.ndarray             # (N, n) int32, -1 = free
    mip_value_bits: tuple[tuple[int, ...], ...]  # [a][v] -> N-bit int
    mip_free_bits: tuple[int, ...]           # [a] -> N-bit int
    item_rows: dict[tuple[int, int], int]    # (attribute, value) -> row
    item_mip_counts: np.ndarray              # (n_items, N) int32
    mip_fanout: np.ndarray                   # (N,) float64, 2**min(length, 16)
    mip_log_counts: np.ndarray               # (N,) float64, log(global count)
    #: Whole-table analogues of the per-query ARM-model measurements
    #: (:class:`~repro.core.costs.ArmModelStats`), computed once at build
    #: time: how many items are frequent at the primary support, and the
    #: frequent-pair density among the strongest of them.  They are the
    #: dataset-level prior behind the per-query measurements — a dense
    #: global pair graph predicts dense focal subsets — and a calibration/
    #: diagnostics feature that costs ~1k bitmask ANDs offline.
    global_f1: int = 0
    global_pair_density: float = 0.0

    # -- derived scalars ----------------------------------------------------

    @property
    def avg_length(self) -> float:
        total = sum(self.length_histogram.values())
        if not total:
            return 0.0
        return sum(k * v for k, v in self.length_histogram.items()) / total

    @property
    def max_length(self) -> int:
        return max(self.length_histogram, default=0)

    @property
    def avg_pow2_length(self) -> float:
        """Average ``2**length`` over MIPs (rule-generation work factor)."""
        total = sum(self.length_histogram.values())
        if not total:
            return 0.0
        return (
            sum((1 << min(k, _MAX_POW2_LENGTH)) * v
                for k, v in self.length_histogram.items())
            / total
        )

    @property
    def tidset_words(self) -> int:
        """64-bit words per tidset — the unit of one record-level AND."""
        return max(1, -(-self.n_records // 64))

    def fraction_with_count_at_least(self, min_count: int) -> float:
        """Fraction of MIPs whose *global* count reaches ``min_count``."""
        n = len(self.sorted_global_counts)
        if n == 0:
            return 0.0
        idx = int(np.searchsorted(self.sorted_global_counts, min_count, side="left"))
        return (n - idx) / n


def gather_statistics(
    fixed_values: np.ndarray,
    global_counts: np.ndarray,
    tree: SupportedRTree,
    cardinalities: Sequence[int],
    n_records: int,
    primary_support: float,
    mip_matrix: np.ndarray,
    item_matrix: "tuple[np.ndarray, Mapping[Item, int]] | None" = None,
) -> IndexStatistics:
    """Collect all statistics in one offline pass over index and MIPs.

    ``fixed_values`` is the ``(n_mips, d)`` itemset matrix (``-1`` =
    free) and ``global_counts`` the MIPs' global support counts, both in
    MIP order; ``mip_matrix`` is the packed ``(n_mips, words)``
    MIP-tidset matrix the index keeps for ELIMINATE; ``item_matrix`` the
    table's packed item matrix with its row lookup
    (:meth:`RelationalTable.item_matrix`, rows in item sort order).  The
    latter enables the per-item local-count profile; when omitted, that
    profile is empty and the optimizer falls back to the
    distribution-based estimates.
    """
    cardinalities = tuple(cardinalities)
    n_dims = len(cardinalities)
    n_mips = len(fixed_values)
    fixed = fixed_values >= 0
    lengths = fixed.sum(axis=1)

    if n_mips:
        extents = np.where(fixed, 1, np.asarray(cardinalities, dtype=np.int64))
        avg_extents = tuple(s / n_mips for s in extents.sum(axis=0).tolist())
        fix_prob = tuple(f / n_mips for f in fixed.sum(axis=0).tolist())
    else:
        avg_extents = tuple(float(c) for c in cardinalities)
        fix_prob = tuple(0.0 for _ in cardinalities)

    histogram = dict(Counter(lengths.tolist()))

    # Support order: descending global count, ties by MIP row.
    order = np.argsort(-global_counts, kind="stable")
    by_support = fixed_values[order]

    def bits(member: np.ndarray) -> int:
        packed = np.packbits(member, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    value_bits = tuple(
        tuple(bits(by_support[:, a] == v) for v in range(card))
        for a, card in enumerate(cardinalities)
    )
    free_bits = tuple(bits(by_support[:, a] < 0) for a in range(n_dims))

    item_rows: dict[tuple[int, int], int] = {}
    global_f1 = 0
    global_pair_density = 0.0
    if item_matrix is not None and len(item_matrix[1]):
        item_tidsets, row_of = item_matrix
        item_rows = {(item[0], item[1]): j for item, j in row_of.items()}
        item_mip_counts = np.empty((len(item_tidsets), n_mips), dtype=np.int32)
        for j, row in enumerate(item_tidsets):
            item_mip_counts[j] = and_count(mip_matrix, row)[order]

        floor = min_count_for(primary_support, n_records)
        item_counts = popcount_rows(item_tidsets)
        strong = np.flatnonzero(item_counts >= floor)
        global_f1 = len(strong)
        strong = strong[np.argsort(-item_counts[strong], kind="stable")][:48]
        rows = item_tidsets[strong]
        pairs = len(rows) * (len(rows) - 1) // 2
        frequent_pairs = sum(
            int((and_count(rows[i + 1:], rows[i]) >= floor).sum())
            for i in range(len(rows) - 1)
        )
        if pairs:
            global_pair_density = frequent_pairs / pairs
    else:
        item_mip_counts = np.zeros((0, n_mips), dtype=np.int32)

    sorted_counts = np.sort(global_counts)
    return IndexStatistics(
        n_records=n_records,
        n_attributes=n_dims,
        cardinalities=cardinalities,
        n_mips=n_mips,
        avg_box_extents=avg_extents,
        level_stats=tuple(tree.level_stats()),
        level_counts=tuple(
            LevelCountProfile(level, counts)
            for level, counts in enumerate(tree.level_max_counts())
        ),
        sorted_global_counts=sorted_counts,
        length_histogram=histogram,
        attr_fix_prob=fix_prob,
        primary_support=primary_support,
        mip_fixed_values=fixed_values,
        mip_value_bits=value_bits,
        mip_free_bits=free_bits,
        item_rows=item_rows,
        item_mip_counts=item_mip_counts,
        mip_fanout=np.exp2(np.minimum(lengths[order], _MAX_POW2_LENGTH).astype(float)),
        mip_log_counts=np.log(sorted_counts[::-1].astype(float)),
        global_f1=global_f1,
        global_pair_density=global_pair_density,
    )
