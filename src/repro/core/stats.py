"""Precomputed index statistics (the cost model's inputs).

The offline preprocessing phase stores, next to the MIP-index itself, the
aggregate statistics the COLARM optimizer needs to evaluate the six cost
formulae in constant time at query time (Section 3.1): the distribution
of global support counts, the distribution of itemset lengths, and the
per-value MIP bitmaps that SEARCH and the cardinality pass read.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.dataset.schema import Item
from repro.kernels import and_count

__all__ = ["IndexStatistics", "bit_array"]

#: Rule-generation work per itemset is exponential in its length; the cost
#: model caps the 2**length factor so one pathological itemset cannot swamp
#: the estimate.
_MAX_POW2_LENGTH = 16


@dataclass(frozen=True)
class IndexStatistics:
    """Aggregates describing the dataset and the MIPs.

    Beyond the scalar aggregates the paper's formulae use, per-MIP
    profiles make the optimizer's cardinality estimates *data-aware*,
    each laid out the way its reader walks it:

    * ``mip_fixed_values[i, a]`` — the value MIP ``i`` fixes attribute ``a``
      to, or ``-1`` when the attribute is free.  MIP-major, MIP order:
      ELIMINATE and the delta store gather its *rows*.

    The rest is read by SEARCH and the cardinality pass of
    :mod:`repro.core.costs`, and is in **support order** — position ``p``
    is the MIP with the ``p``-th largest global count (ties by row), so
    the MIPs passing the supported filter are a *prefix* — and rebuilt,
    never persisted, at build, fold and load:

    * ``mip_value_bits[a][v]`` / ``mip_free_bits[a]`` — N-bit ints, bit
      ``p`` set when MIP ``p`` fixes attribute ``a`` to ``v`` / leaves it
      free: overlap and containment are ORs and ANDs
      (:meth:`region_bits`), their sizes a ``bit_count()``;
    * ``mip_rows[p]`` — the MIP row at position ``p``, how SEARCH maps
      its bits back to rows; the global count at ``p`` is
      ``sorted_global_counts`` read backwards;
    * ``mip_log_counts[p]`` — log of the global count,
      ``mip_fanout[p]`` the capped ``2**length`` rule-generation factor;
    * ``item_mip_counts[j, p]`` — ``|t(I_p) ∩ t(item_j)|``, the MIP's
      support inside each single-item subset (rows by ``item_rows``),
      the basis of the local-support upper bound behind ELIMINATE's
      estimated output.  Item-major: the pass sums a few items' rows.
    """

    n_records: int
    n_attributes: int
    cardinalities: tuple[int, ...]
    n_mips: int
    sorted_global_counts: np.ndarray         # of all MIPs, ascending
    length_histogram: dict[int, int]         # itemset length -> # MIPs
    primary_support: float
    mip_fixed_values: np.ndarray             # (N, n) int32, -1 = free
    mip_value_bits: tuple[tuple[int, ...], ...]  # [a][v] -> N-bit int
    mip_free_bits: tuple[int, ...]           # [a] -> N-bit int
    mip_rows: np.ndarray                     # (N,) intp, position -> MIP row
    item_rows: dict[tuple[int, int], int]    # (attribute, value) -> row
    item_mip_counts: np.ndarray              # (n_items, N) int32
    mip_fanout: np.ndarray                   # (N,) float64, 2**min(length, 16)
    mip_log_counts: np.ndarray               # (N,) float64, log(global count)

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
    def tidset_words(self) -> int:
        """64-bit words per tidset — the unit of one record-level AND."""
        return max(1, -(-self.n_records // 64))

    def n_supported(self, min_count: int) -> int:
        """How many MIPs' global counts reach ``min_count`` — the length
        of the supported prefix in support order."""
        return self.n_mips - int(self.sorted_global_counts.searchsorted(min_count))

    def region_bits(
        self, selections: Mapping[int, frozenset[int]]
    ) -> tuple[int, int]:
        """``(overlap, contained)`` of the region the range selections
        name: N-bit ints in support order, bit ``p`` set when MIP ``p``'s
        box meets / lies inside it (Section 3.4's classification).

        A full-domain selection constrains nothing; on a partial one a
        fixed attribute must hold an admitted value, and a free attribute
        always overlaps and is never contained.
        """
        overlap = contained = (1 << self.n_mips) - 1
        for ai, values in selections.items():
            if len(values) == self.cardinalities[ai]:
                continue
            value_bits = self.mip_value_bits[ai]
            inside = 0
            for v in values:
                inside |= value_bits[v]
            contained &= inside
            overlap &= inside | self.mip_free_bits[ai]
        return overlap, contained


def bit_array(bits: int, n: int) -> np.ndarray:
    """The low ``n`` bits of an int as a uint8 array (padded to a byte)."""
    return np.unpackbits(
        np.frombuffer(bits.to_bytes(-(-n // 8), "little"), dtype=np.uint8),
        bitorder="little",
    )


def gather_statistics(
    fixed_values: np.ndarray,
    global_counts: np.ndarray,
    cardinalities: Sequence[int],
    n_records: int,
    primary_support: float,
    mip_matrix: np.ndarray,
    item_matrix: "tuple[np.ndarray, Mapping[Item, int]]",
) -> IndexStatistics:
    """Collect all statistics in one offline pass over index and MIPs.

    ``fixed_values`` is the ``(n_mips, d)`` itemset matrix (``-1`` =
    free) and ``global_counts`` the MIPs' global support counts, both in
    MIP order; ``mip_matrix`` is the packed ``(n_mips, words)``
    MIP-tidset matrix the index keeps for ELIMINATE; ``item_matrix`` the
    table's packed item matrix with its row lookup
    (:meth:`RelationalTable.item_matrix`, rows in item sort order), the
    basis of the per-item local-count profile.  Its rows must cover every
    record of the MIPs' universe with one present item per attribute (as
    a table's always do): each attribute's last row is counted as the
    MIP's global count less the others.
    """
    cardinalities = tuple(cardinalities)
    n_dims = len(cardinalities)
    n_mips = len(fixed_values)
    lengths = (fixed_values >= 0).sum(axis=1)

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

    item_tidsets, row_of = item_matrix
    item_rows = {(item[0], item[1]): j for item, j in row_of.items()}
    attribute_of = np.empty(len(item_tidsets), dtype=np.intp)
    for item, j in row_of.items():
        attribute_of[j] = item[0]
    # Every record holds one value per attribute, so a MIP's counts over
    # an attribute's present items sum to its global count: the last row
    # of each attribute is that remainder, one AND fewer per attribute.
    last = np.ones(len(attribute_of), dtype=bool)
    last[:-1] = attribute_of[1:] != attribute_of[:-1]
    by_mip = np.empty((len(item_tidsets), n_mips), dtype=np.int32)
    first = 0
    for j in np.flatnonzero(last):
        for k in range(first, j):
            by_mip[k] = and_count(mip_matrix, item_tidsets[k])
        by_mip[j] = global_counts - by_mip[first:j].sum(axis=0)
        first = j + 1
    item_mip_counts = by_mip.take(order, axis=1)

    sorted_counts = np.sort(global_counts)
    return IndexStatistics(
        n_records=n_records,
        n_attributes=n_dims,
        cardinalities=cardinalities,
        n_mips=n_mips,
        sorted_global_counts=sorted_counts,
        length_histogram=histogram,
        primary_support=primary_support,
        mip_fixed_values=fixed_values,
        mip_value_bits=value_bits,
        mip_free_bits=free_bits,
        mip_rows=order,
        item_rows=item_rows,
        item_mip_counts=item_mip_counts,
        mip_fanout=np.exp2(np.minimum(lengths[order], _MAX_POW2_LENGTH).astype(float)),
        mip_log_counts=np.log(sorted_counts[::-1].astype(float)),
    )
