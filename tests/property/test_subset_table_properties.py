"""Property tests: gathering a MIP subset's cells from the index's
sub-itemset table is naming them afresh.

Every index names the sub-itemset lattices of all its MIPs once
(:class:`repro.kernels.SubsetTable`); MIP-plan rule generation gathers
the qualified rows' cells from it and ANDs only the nodes they touch.
For random row subsets of built indexes — any order, any widths — the
gathered path must give the same cell layout and counts, positions in the same
relative order, the same number of ANDed sub-itemsets and byte-identical
rules, in order, as ``count_subset_lattice(mip_sources(rows))``, at any
lattice slab cap.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.focal import resolve_focal
from repro.core.mipindex import build_mip_index, mip_sources
from repro.core.query import LocalizedQuery
from repro.itemsets.rules import rules_from_subset_lattices
from tests.conftest import make_random_table


def dense_ranks(cells) -> np.ndarray:
    """The cells' positions as dense ranks: equal when two results order
    their cells alike, whatever numbers name the positions."""
    return np.unique(cells.order, return_inverse=True)[1]


def assert_same_lattices(index, kernel, rows, minconf=0.5):
    rows = np.asarray(rows, dtype=np.intp)
    sources, _ = mip_sources(index, rows)
    before = kernel.evaluations
    named = kernel.count_subset_lattice(sources)
    named_ands = kernel.evaluations - before
    gathered = kernel.count_subset_lattice(
        sources, table=index.subset_table, rows=rows
    )
    assert kernel.evaluations - before - named_ands == named_ands
    assert len(gathered) == len(named)
    for name in ("ids", "widths", "offsets", "counts"):
        assert np.array_equal(getattr(gathered, name), getattr(named, name))
    assert gathered.counts.dtype == gathered.order.dtype == np.int32
    assert len(gathered.order) == len(gathered.counts)
    assert np.array_equal(dense_ranks(gathered), dense_ranks(named))
    schema = index.table.schema
    expected = rules_from_subset_lattices(
        named, kernel.dq_size, minconf, schema=schema
    )
    rules = rules_from_subset_lattices(
        gathered, kernel.dq_size, minconf, schema=schema
    )
    assert rules.pack() == expected.pack()
    return rules


@st.composite
def scenarios(draw):
    """A built index, a focal kernel over it and a row subset of it."""
    n_attrs = draw(st.integers(min_value=2, max_value=5))
    cards = tuple(
        draw(st.integers(min_value=2, max_value=4)) for _ in range(n_attrs)
    )
    table = make_random_table(
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        n_records=draw(st.integers(min_value=10, max_value=80)),
        cardinalities=cards,
    )
    index = build_mip_index(
        table, draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    )
    attribute = draw(st.integers(min_value=0, max_value=n_attrs - 1))
    values = draw(st.sets(
        st.integers(min_value=0, max_value=cards[attribute] - 1), min_size=1
    ))
    focus = resolve_focal(
        index, LocalizedQuery({attribute: frozenset(values)}, 0.1, 0.0)
    )
    if not focus.dq_size:
        focus = resolve_focal(index, LocalizedQuery({}, 0.1, 0.0))
    rows = draw(st.lists(
        st.integers(min_value=0, max_value=index.n_mips - 1), unique=True
    ) if index.n_mips else st.just([]))
    return index, focus.kernel(), rows


@settings(max_examples=40, deadline=None)
@given(
    scenarios(),
    st.sampled_from([None, 1, 3]),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]),
)
def test_gathered_lattices_equal_named_ones(scenario, slab_rows, minconf):
    """Random row subsets, in random order, with the slab cap at one row,
    a few rows or the default."""
    index, kernel, rows = scenario
    cap = kernels.LATTICE_SLAB_BYTES
    if slab_rows is not None:
        cap = slab_rows * kernel.words * 8
    with mock.patch.object(kernels, "LATTICE_SLAB_BYTES", cap):
        assert_same_lattices(index, kernel, rows, minconf)


@pytest.fixture(scope="module")
def index():
    table = make_random_table(seed=23, n_records=150,
                              cardinalities=(4, 3, 3, 2, 3))
    return build_mip_index(table, primary_support=0.03)


@pytest.fixture(scope="module")
def kernel(index):
    return resolve_focal(
        index, LocalizedQuery({0: frozenset({0, 2})}, 0.1, 0.0)
    ).kernel()


def widths_of(index):
    return (index.stats.mip_fixed_values >= 0).sum(axis=1)


def test_no_rows_gather_nothing(index, kernel):
    sources, _ = mip_sources(index, np.zeros(0, dtype=np.intp))
    cells = kernel.count_subset_lattice(
        sources, table=index.subset_table, rows=[]
    )
    assert len(cells) == 0 and len(cells.counts) == 0
    assert not len(assert_same_lattices(index, kernel, []))


def test_width_one_rows_count_items_only(index, kernel):
    rows = np.flatnonzero(widths_of(index) == 1)
    assert len(rows)
    before = kernel.evaluations
    assert not len(assert_same_lattices(index, kernel, rows[::-1]))
    assert kernel.evaluations == before  # no sub-itemset of two items


def test_a_single_source(index):
    """Counted in the whole table, where every MIP occurs: all splits."""
    kernel = resolve_focal(index, LocalizedQuery({}, 0.1, 0.0)).kernel()
    widths = widths_of(index)
    row = int(np.argmax(widths))
    assert widths[row] >= 3
    rules = assert_same_lattices(index, kernel, [row], minconf=0.0)
    assert len(rules) == (1 << int(widths[row])) - 2


def test_every_row_over_a_split_slab(index, kernel, monkeypatch):
    """All MIPs at once, one table row per slab."""
    monkeypatch.setattr(kernels, "LATTICE_SLAB_BYTES", kernel.words * 8)
    rows = np.random.default_rng(3).permutation(index.n_mips)
    assert len(assert_same_lattices(index, kernel, rows))


def test_the_table_refuses_expanded_sources(index, kernel):
    sources, _ = mip_sources(index, [0])
    with pytest.raises(ValueError):
        kernel.count_subset_lattice(
            sources, floor=1, table=index.subset_table, rows=[0]
        )
