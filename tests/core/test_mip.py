"""MIP bounding boxes and the per-row MIP view."""

import numpy as np

from repro import kernels
from repro import tidset as ts
from repro.core.mipindex import build_mip_index, mip_boxes
from tests.itemsets.reference_charm import charm
from tests.rtree.reference import contains_point, full_domain


def test_bounding_box_construction(salary):
    a0 = salary.schema.item("Age", "20-30")       # attr 4, value 0
    s2 = salary.schema.item("Salary", "90K-120K")  # attr 5, value 2
    cards = salary.schema.cardinalities()
    fixed = np.full((1, len(cards)), -1, dtype=np.int32)
    fixed[0, a0.attribute], fixed[0, s2.attribute] = a0.value, s2.value
    lows, highs = mip_boxes(fixed, cards)
    # Free attributes span their domain; fixed ones collapse to a cell.
    assert lows.tolist() == [[0, 0, 0, 0, 0, 2]]
    assert highs.tolist() == [[3, 5, 2, 1, 0, 2]]


def test_empty_itemset_box_is_full_domain(salary):
    cards = salary.schema.cardinalities()
    lows, highs = mip_boxes(np.full((1, len(cards)), -1), cards)
    full = full_domain(cards)
    assert tuple(lows[0].tolist()) == full.lows
    assert tuple(highs[0].tolist()) == full.highs


def test_rows_are_charm_closed_itemsets(salary):
    """Row ``i`` of the index is CHARM's ``i``-th closed itemset: its
    fixed values, its packed tidset, its global count and the view."""
    closed = charm(salary.item_tidsets(), salary.n_records, 0.3)
    index = build_mip_index(salary, primary_support=0.3)
    assert index.n_mips == len(closed)
    for row, cfi in enumerate(closed):
        mip = index.mip(row)
        assert mip.row == row
        assert mip.itemset == cfi.items
        assert mip.global_count == cfi.support_count
        assert len(mip.itemset) == cfi.length
        assert kernels.unpack(index.mip_tidset_matrix[row]) == cfi.tidset
        fixed = index.stats.mip_fixed_values[row]
        assert {a for a in range(len(fixed)) if fixed[a] >= 0} == \
            {i.attribute for i in cfi.items}
        # every supporting record's coordinates lie inside the box
        for tid in ts.iter_tids(cfi.tidset):
            coords = tuple(int(v) for v in salary.data[tid])
            assert contains_point(mip.box, coords)
