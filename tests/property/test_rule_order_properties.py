"""Property tests: rule order read off the sub-itemset table.

:meth:`repro.kernels.FocalKernel.count_subset_lattice` gives every cell
the position of its sub-itemset in id-tuple order, and
:func:`repro.itemsets.rules.rules_from_subset_lattices` sorts the kept
splits by one int64 key made of the antecedent's and the consequent's
positions.  Three checks on random tables and sources:

* the blocks are byte-identical to the reference that derives the order
  from the ids (``tests/itemsets/reference_rules.py``), in closed and
  expanded mode, with ``min_count`` floors;
* the same on a schema whose node keys need two int64 words (>= 128
  items, sources of width >= 8);
* the positions sort the sub-itemsets exactly as Python's ``sorted()``
  sorts their id tuples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tidset as ts
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable
from repro.itemsets.rules import rules_from_subset_lattices
from tests.itemsets import reference_rules
from tests.itemsets.enumerations import focal_kernel

#: ``(attributes, values per attribute)``: 5 x 4 = 20 items fit a node key
#: in one int64; 10 x 13 = 130 items (8 bits a field, 7 fields a word)
#: need two once a source is 8 wide.
NARROW, WIDE = (5, 4), (10, 13)


@st.composite
def order_cases(draw, shape):
    """A skewed random table, a focal subset and distinct sources: one
    item per attribute of a random record, over a random attribute set —
    every source is held by at least one record of the table."""
    n_attributes, n_values = shape
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    n_records = draw(st.sampled_from([30, 64, 65, 150]))
    # One value per attribute is common, so wide sources keep supports
    # above the floors; on some attributes it is the last, so the largest
    # ids (the top bits of a key field) occur too.
    data = np.minimum(
        rng.geometric(draw(st.sampled_from([0.5, 0.7])),
                      size=(n_records, n_attributes)) - 1,
        n_values - 1,
    )
    data = np.where(rng.random(n_attributes) < 0.5, data,
                    n_values - 1 - data).astype(np.int32)
    schema = Schema(tuple(
        Attribute(f"a{a}", tuple(f"v{v}" for v in range(n_values)))
        for a in range(n_attributes)
    ))
    table = RelationalTable(schema, data)
    dq = ts.from_tids(
        np.flatnonzero(rng.random(n_records) < rng.uniform(0.4, 1.0)).tolist()
    )
    lo = draw(st.integers(min_value=1, max_value=n_attributes))
    sources = set()
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        row = data[rng.integers(n_records)]
        width = rng.integers(lo, n_attributes + 1)
        attrs = np.sort(rng.choice(n_attributes, size=width, replace=False))
        ids = (attrs * n_values + row[attrs]).tolist()
        sources.add(tuple(ids + [schema.n_items] * (n_attributes - width)))
    floor = draw(st.integers(min_value=1, max_value=6))
    minconf = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    return table, dq, sorted(sources), floor, minconf


def _assert_same_blocks(case):
    table, dq, sources, floor, minconf = case
    kernel = focal_kernel(table, dq)
    schema = table.schema
    for lattice_floor, min_count in ((None, None), (None, floor),
                                     (floor, floor)):
        groups = kernel.count_subset_lattice(sources, floor=lattice_floor)
        ours, reference = (
            extract(groups, kernel.dq_size, minconf, schema=schema,
                    min_count=min_count)
            for extract in (rules_from_subset_lattices,
                            reference_rules.rules_from_subset_lattices)
        )
        assert ours.pack() == reference.pack(), (lattice_floor, min_count)
        assert ours == reference


@settings(max_examples=60, deadline=None)
@given(order_cases(NARROW))
def test_blocks_equal_the_reference(case):
    _assert_same_blocks(case)


@settings(max_examples=25, deadline=None)
@given(order_cases(WIDE))
def test_blocks_equal_the_reference_with_two_word_keys(case):
    table, _, sources, _, _ = case
    width = max(sum(i < table.schema.n_items for i in s) for s in sources)
    bits = table.schema.n_items.bit_length()
    if width * bits <= 63:
        # The key of the deepest node fits one int64: add a focal
        # record's full itemset as a source.
        table, dq, sources, floor, minconf = case
        row = table.data[ts.to_list(dq)[0] if dq else 0]
        sources = sorted({*sources, tuple(
            (np.arange(table.n_attributes) * 13 + row).tolist()
        )})
        case = table, dq, sources, floor, minconf
    _assert_same_blocks(case)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([NARROW, WIDE]).flatmap(order_cases))
def test_positions_follow_tuple_order(case):
    table, dq, sources, floor, _ = case
    kernel = focal_kernel(table, dq)
    for lattice_floor in (None, floor):
        position: dict[tuple, int] = {}
        for ids, _, order in kernel.count_subset_lattice(
            sources, floor=lattice_floor
        ):
            n = ids.shape[1]
            for source, ranks in zip(ids.tolist(), order.tolist()):
                for mask, rank in enumerate(ranks):
                    subset = tuple(i for k, i in enumerate(source)
                                   if mask >> k & 1)
                    # One sub-itemset, one position, whichever cell.
                    assert position.setdefault(subset, rank) == rank
                assert len(ranks) == 1 << n
        by_position = sorted(position, key=position.__getitem__)
        assert by_position == sorted(position)
        assert len(set(position.values())) == len(position)
