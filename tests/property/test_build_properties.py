"""The offline build reads CHARM's item masks straight into arrays.

``mine_mips`` must produce exactly what the obvious construction over
``charm``'s ``Item``-tuple itemsets (``tests/itemsets/reference_charm.py``)
produces: the same ``(n_mips, d)`` fixed-value matrix, the same packed
tidsets, the same ``(length, items)`` row order — so snapshots written by
either are byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.mipindex import build_mip_index, mine_mips
from repro.core.query import LocalizedQuery
from tests.itemsets.reference_charm import charm
from tests.property.test_oracle import (
    assert_plans_match_oracle,
    make_table,
    tables,
)


def reference_arrays(table, primary_support):
    """``(fixed_values, mip_matrix)`` built one ``ClosedItemset`` at a time."""
    closed = charm(table.item_tidsets(), table.n_records, primary_support)
    fixed = np.full((len(closed), table.n_attributes), -1, dtype=np.int32)
    for row, cfi in enumerate(closed):
        for item in cfi.items:
            fixed[row, item.attribute] = item.value
    matrix = kernels.pack_many(
        [cfi.tidset for cfi in closed], kernels.n_words(table.n_records)
    )
    return fixed, matrix


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=80, deadline=None)
@given(tables(max_card=5), st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0]))
def test_mine_mips_equals_the_reference_construction(case, primary_support):
    cards, rows = case
    table = make_table(cards, rows)
    assert_same_arrays(
        mine_mips(table, primary_support),
        reference_arrays(table, primary_support),
    )


@pytest.mark.parametrize("seed", range(3))
def test_mine_mips_on_a_wide_item_space(seed):
    """More than 64 items: the masks span several bytes and words."""
    rng = np.random.default_rng(seed)
    cards = [9] * 10
    rows = [tuple(int(min(rng.geometric(0.4) - 1, 8)) for _ in cards)
            for _ in range(70)]
    table = make_table(cards, rows)
    assert_same_arrays(mine_mips(table, 0.05), reference_arrays(table, 0.05))


def test_a_floor_nothing_reaches_builds_an_empty_index():
    """No item reaches the floor: zero rows of the right shapes, and the
    index still answers every plan exactly (ARM from the records, the MIP
    plans with nothing)."""
    cards, rows = [3, 3], [(0, 0), (1, 1), (2, 2)]
    table = make_table(cards, rows)
    fixed, matrix = mine_mips(table, 0.5)
    assert fixed.shape == (0, 2) and fixed.dtype == np.int32
    assert matrix.shape == (0, 1) and matrix.dtype == np.uint64
    assert_same_arrays((fixed, matrix), reference_arrays(table, 0.5))
    index = build_mip_index(table, 0.5)
    assert len(index.global_counts) == 0
    query = LocalizedQuery({0: frozenset({0, 1})}, 0.5, 0.5)
    assert_plans_match_oracle(index, rows, rows, 0, query)
