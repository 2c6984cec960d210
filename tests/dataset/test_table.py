"""RelationalTable: validation, tidsets, selections, projections."""

import numpy as np
import pytest

from repro import tidset as ts
from repro.dataset.schema import Attribute, Item, Schema
from repro.dataset.table import RelationalTable, from_labeled_records
from repro.errors import DataError, SchemaError


@pytest.fixture()
def small():
    attrs = (
        Attribute("A", ("a0", "a1")),
        Attribute("B", ("b0", "b1", "b2")),
    )
    data = np.array([[0, 0], [0, 1], [1, 1], [1, 2]], dtype=np.int32)
    return RelationalTable(Schema(attrs), data)


def test_shape(small):
    assert small.n_records == 4
    assert small.n_attributes == 2
    assert len(small) == 4


def test_rejects_wrong_width():
    schema = Schema((Attribute("A", ("x",)),))
    with pytest.raises(DataError):
        RelationalTable(schema, np.zeros((2, 2), dtype=np.int32))


def test_rejects_out_of_domain():
    schema = Schema((Attribute("A", ("x", "y")),))
    with pytest.raises(DataError):
        RelationalTable(schema, np.array([[2]], dtype=np.int32))
    with pytest.raises(DataError):
        RelationalTable(schema, np.array([[-1]], dtype=np.int32))


def test_rejects_float_data():
    schema = Schema((Attribute("A", ("x", "y")),))
    with pytest.raises(DataError):
        RelationalTable(schema, np.array([[0.5]]))


def test_data_is_immutable(small):
    with pytest.raises(ValueError):
        small.data[0, 0] = 1


def test_record_access(small):
    assert small.record(1) == (Item(0, 0), Item(1, 1))
    assert small.record_labels(3) == {"A": "a1", "B": "b2"}


def test_item_tidsets(small):
    masks = small.item_tidsets()
    assert ts.to_list(masks[Item(0, 0)]) == [0, 1]
    assert ts.to_list(masks[Item(1, 1)]) == [1, 2]
    # never-occurring items are simply absent
    assert small.item_tidset(Item(1, 0)) == ts.from_tids([0])


def test_itemset_tidset_and_support(small):
    items = [Item(0, 1), Item(1, 1)]
    assert ts.to_list(small.itemset_tidset(items)) == [2]
    assert small.support_count(items) == 1
    assert small.support(items) == pytest.approx(0.25)
    # the empty itemset is supported everywhere
    assert small.support_count([]) == 4


def test_tids_matching(small):
    mask = small.tids_matching({0: {1}})
    assert ts.to_list(mask) == [2, 3]
    mask = small.tids_matching({0: {1}, 1: {1, 2}})
    assert ts.to_list(mask) == [2, 3]
    mask = small.tids_matching({0: {0}, 1: {2}})
    assert mask == ts.EMPTY


def test_tids_matching_bad_attribute(small):
    with pytest.raises(SchemaError):
        small.tids_matching({7: {0}})


def test_project(small):
    proj = small.project([1])
    assert proj.n_attributes == 1
    assert proj.schema.names == ("B",)
    assert proj.record(0) == (Item(0, 0),)


def test_transactions_roundtrip(small):
    txns = small.to_transactions()
    assert txns[0] == (0, 2)  # offsets: A at 0, B at 2
    assert txns[3] == (1, 4)
    assert small.item_offsets() == (0, 2)


def test_from_labeled_records():
    attrs = (Attribute("X", ("p", "q")),)
    table = from_labeled_records(attrs, [("p",), ("q",), ("p",)])
    assert table.n_records == 3
    assert table.data[:, 0].tolist() == [0, 1, 0]


def test_from_labeled_records_rejects_bad_width():
    attrs = (Attribute("X", ("p",)),)
    with pytest.raises(DataError):
        from_labeled_records(attrs, [("p", "extra")])


def test_from_labeled_records_rejects_unknown_label():
    attrs = (Attribute("X", ("p",)),)
    with pytest.raises(SchemaError):
        from_labeled_records(attrs, [("zzz",)])


def test_empty_table_supports_nothing():
    schema = Schema((Attribute("A", ("x",)),))
    table = RelationalTable(schema, np.zeros((0, 1), dtype=np.int32))
    assert table.support([Item(0, 0)]) == 0.0
    assert table.item_tidsets() == {}
