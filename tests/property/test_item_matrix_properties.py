"""The table's item matrix and the per-item MIP counts equal the
per-item reference builds.

``RelationalTable.item_matrix()`` packs each schema item's column bits
straight into its row and keeps the present rows;
``gather_statistics`` counts every item but the last of each attribute
with one AND and the last as the MIP's global count less the others.
The references here are the builds they replaced: one ``np.unique`` per
column and one ``packbits`` per present value, packed back from ints,
and one ``and_count`` per item.  Equality is exact — bits, dtype, row
order and row lookup — on tables of 1-200 rows (on and off multiples
of 8 and 64) with absent values and single-value attributes, and the
counts on built, folded and mmap-loaded indexes alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.persistence import load_index, save_index
from repro.dataset.schema import Attribute, Item, Schema
from repro.dataset.table import RelationalTable

#: Sizes around the byte and word boundaries of a packed row.
EDGE_SIZES = (1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 192, 200)


@st.composite
def tables(draw, min_records=1):
    """A table whose attributes use a drawn subset of their domain: some
    values absent, some attributes down to one value."""
    n_records = draw(st.one_of(
        st.sampled_from([n for n in EDGE_SIZES if n >= min_records]),
        st.integers(min_records, 200),
    ))
    cards = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    columns = []
    for card in cards:
        used = draw(st.lists(st.integers(0, card - 1), min_size=1,
                             max_size=card, unique=True))
        columns.append(rng.choice(used, size=n_records))
    schema = Schema(tuple(
        Attribute(f"a{i}", tuple(f"v{v}" for v in range(card)))
        for i, card in enumerate(cards)
    ))
    return RelationalTable(schema, np.column_stack(columns).astype(np.int32))


def reference_item_matrix(table):
    """The build the item matrix replaced: ``np.unique`` per column, one
    int tidset per present value, packed back row by row."""
    tidsets = {}
    for a in range(table.n_attributes):
        column = table.data[:, a]
        for v in np.unique(column):
            bits = np.packbits(column == v, bitorder="little")
            tidsets[Item(a, int(v))] = int.from_bytes(bits.tobytes(), "little")
    items = sorted(tidsets)
    matrix = kernels.pack_many(
        [tidsets[item] for item in items], kernels.n_words(table.n_records)
    )
    ids = np.array([table.schema.item_id(item) for item in items], dtype=np.intp)
    return tidsets, matrix, {item: i for i, item in enumerate(items)}, ids


def reference_item_mip_counts(index):
    """One ``and_count`` per item row, in support order."""
    matrix, _ = index.table.item_matrix()
    counts = np.zeros((len(matrix), len(index.mip_tidset_matrix)), np.int32)
    for j, row in enumerate(matrix):
        counts[j] = kernels.and_count(index.mip_tidset_matrix, row)
    return counts[:, index.stats.mip_rows]


def assert_counts_match(index):
    got = index.stats.item_mip_counts
    want = reference_item_mip_counts(index)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(tables(), st.booleans())
def test_item_matrix_equals_the_per_item_build(table, tidsets_first):
    """Bits, dtype, shape, row order, row lookup and ids, whichever
    accessor a caller reaches first."""
    tidsets, matrix, rows, ids = reference_item_matrix(table)
    if tidsets_first:
        assert table.item_tidsets() == tidsets
    got, got_rows = table.item_matrix()
    assert got.dtype == matrix.dtype and got.shape == matrix.shape
    assert np.array_equal(got, matrix)
    assert not got.flags.writeable
    assert list(got_rows.items()) == list(rows.items())
    assert table.item_ids().dtype == ids.dtype
    assert np.array_equal(table.item_ids(), ids)
    assert table.item_tidsets() == tidsets
    assert all(
        table.item_tidset(item) == kernels.unpack(got[row])
        for item, row in got_rows.items()
    )


@settings(max_examples=40, deadline=None)
@given(tables(min_records=8), st.sampled_from([0.05, 0.2, 0.5]),
       st.integers(0, 2**16))
def test_item_mip_counts_equal_one_and_per_item(
    tmp_path_factory, table, primary_support, seed
):
    """On the built index, on a fold of it (appends, deletes,
    ``recompact()``) and on an ``mmap_mode="r"``, ``verify="stored"``
    load of each."""
    index = build_mip_index(table, primary_support=primary_support)
    assert_counts_match(index)

    rng = np.random.default_rng(seed)
    mx = MaintainedIndex(index, max_delta_fraction=0.99)
    cards = table.schema.cardinalities()
    mx.append(np.column_stack([rng.integers(0, c, size=5) for c in cards]))
    mx.delete(sorted(set(rng.integers(0, table.n_records, size=3).tolist())))
    mx.recompact()
    folded = mx.index
    assert folded is not index
    assert_counts_match(folded)

    directory = tmp_path_factory.mktemp("item-matrix")
    for i, built in enumerate((index, folded)):
        path = directory / f"{i}.colarm.npz"
        save_index(built, path, compress=False)
        loaded, _ = load_index(path, mmap_mode="r", verify="stored")
        assert loaded.load_report.fully_mapped
        assert_counts_match(loaded)
        assert np.array_equal(
            loaded.stats.item_mip_counts, built.stats.item_mip_counts
        )
