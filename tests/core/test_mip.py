"""MIP bounding boxes."""

from repro import tidset as ts
from repro.core.mip import MIP, mip_bounding_box
from repro.itemsets.charm import charm
from repro.rtree.geometry import Rect


def test_bounding_box_construction(salary):
    a0 = salary.schema.item("Age", "20-30")       # attr 4, value 0
    s2 = salary.schema.item("Salary", "90K-120K")  # attr 5, value 2
    cards = salary.schema.cardinalities()
    box = mip_bounding_box((a0, s2), cards)
    # Free attributes span their domain; fixed ones collapse to a cell.
    assert box.lows == (0, 0, 0, 0, 0, 2)
    assert box.highs == (3, 5, 2, 1, 0, 2)


def test_empty_itemset_box_is_full_domain(salary):
    cards = salary.schema.cardinalities()
    assert mip_bounding_box((), cards) == Rect.full_domain(cards)


def test_from_closed(salary):
    closed = charm(salary.item_tidsets(), salary.n_records, 0.3)
    cards = salary.schema.cardinalities()
    for cfi in closed:
        mip = MIP.from_closed(cfi, cards)
        assert mip.itemset == cfi.items
        assert mip.tidset == cfi.tidset
        assert mip.global_count == cfi.support_count
        assert mip.length == cfi.length
        assert mip.fixed_attributes == {i.attribute for i in cfi.items}
        # every supporting record's coordinates lie inside the box
        for tid in ts.iter_tids(mip.tidset):
            coords = tuple(int(v) for v in salary.data[tid])
            assert mip.box.contains_point(coords)
