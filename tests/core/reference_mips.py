"""Scalar references over one MIP at a time, for tests only.

The index is arrays; the tests check them against objects built here
the slow, obvious way and without reading those arrays: each MIP as a
closed itemset of a fresh CHARM run (row ``i`` is the run's ``i``-th,
the order the build keeps), a ``Rect`` box spanning one cell on the
fixed attributes and the whole domain elsewhere (Figure 1), and a
Python-int tidset; and each box classified against a focal region one
dimension at a time (Section 3.4's contained / partial / disjoint
groups) — the per-box reference for
:func:`tests.core.reference_search.classify_all`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.query import FocalRange
from repro.itemsets.itemset import Itemset
from repro.rtree.geometry import Rect
from tests.itemsets.reference_charm import charm


class Overlap(enum.Enum):
    """Relation of a MIP bounding box to the focal region."""

    CONTAINED = "contained"
    PARTIAL = "partial"
    DISJOINT = "disjoint"


def classify(focal: FocalRange, box: Rect) -> Overlap:
    """Exact relation of a box to the region (product of value sets)."""
    contained = True
    for dim, sel_mask in enumerate(focal.value_masks):
        lo, hi = box.lows[dim], box.highs[dim]
        interval_mask = ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1)
        inside = interval_mask & sel_mask
        if inside == 0:
            return Overlap.DISJOINT
        if inside != interval_mask:
            contained = False
    return Overlap.CONTAINED if contained else Overlap.PARTIAL


@dataclass(frozen=True)
class RefMIP:
    """One MIP: a closed itemset, its box, its tidset and global count."""

    itemset: Itemset
    box: Rect
    tidset: int
    global_count: int
    row: int

    @property
    def length(self) -> int:
        return len(self.itemset)

    @property
    def fixed_attributes(self) -> frozenset[int]:
        return frozenset(item.attribute for item in self.itemset)


def ref_mips(index) -> list[RefMIP]:
    """Every MIP of ``index`` in row order, from CHARM over its table."""
    table = index.table
    cards = table.schema.cardinalities()
    mips = []
    for row, cfi in enumerate(
        charm(table.item_tidsets(), table.n_records, index.primary_support)
    ):
        lows, highs = [0] * len(cards), [c - 1 for c in cards]
        for item in cfi.items:
            lows[item.attribute] = highs[item.attribute] = item.value
        mips.append(RefMIP(
            itemset=cfi.items,
            box=Rect(tuple(lows), tuple(highs)),
            tidset=cfi.tidset,
            global_count=cfi.support_count,
            row=row,
        ))
    return mips


def candidate_pairs(index, candidates) -> list[tuple[RefMIP, Overlap]]:
    """A ``CandidateArray`` as ``(mip, Overlap)`` pairs, search order."""
    mips = ref_mips(index)
    return [
        (
            mips[row],
            Overlap.CONTAINED if is_contained else Overlap.PARTIAL,
        )
        for row, is_contained in zip(
            candidates.rows.tolist(), candidates.contained.tolist()
        )
    ]


def qualified_pairs(index, qualified) -> list[tuple[RefMIP, int]]:
    """A ``QualifiedArray`` as ``(mip, local_count)`` pairs."""
    mips = ref_mips(index)
    return [
        (mips[row], local)
        for row, local in zip(
            qualified.rows.tolist(), qualified.local_counts.tolist()
        )
    ]
