"""Frequent itemsets over main + delta: one universe, stacked.

FP-Growth left ``src/`` in PR 24; what is held here to the oracle is the
enumeration a request runs when the index has a delta store — the
resolved ``FocalSubset``'s kernel counts the live stored records and the
appended ones as one universe (``tests/itemsets/enumerations.frequent_in``).
The test ids are the ones the floor file tracks, hence the names.
"""

import pytest

from repro.core.focal import resolve_focal
from repro.core.maintenance import MaintainedIndex
from repro.core.query import LocalizedQuery
from repro.dataset.table import RelationalTable
from tests import oracle
from tests.conftest import make_random_table, rows_of
from tests.itemsets.enumerations import frequent_in


def assert_same(table, minsupp, max_length=None):
    """Store three quarters of ``table``, append the rest, delete two
    records (one stored, one appended): the enumeration over what is live
    must be the oracle's over the same rows."""
    rows = rows_of(table)
    n_main = 3 * len(rows) // 4
    mx = MaintainedIndex(
        RelationalTable(table.schema, table.data[:n_main]), 0.5,
    )
    mx.append(rows[n_main:])
    mx.delete([1, len(rows) - 1])
    live = [row for tid, row in enumerate(rows) if tid not in (1, len(rows) - 1)]
    focus = resolve_focal(mx.index, LocalizedQuery({}, minsupp, 0.5), mx)
    assert focus.dq_size == len(live) and focus.delta.dq_size == len(rows) - n_main - 1
    got = frequent_in(focus.kernel(), table.schema, minsupp)
    want = oracle.frequent_itemsets(
        live, oracle.min_count(minsupp, len(live)), range(table.n_attributes)
    )
    if max_length is not None:
        want = {f: n for f, n in want.items() if len(f) <= max_length}
        got = [(f, n) for f, n in got if len(f) <= max_length]
    assert dict(got) == want and len(got) == len(want)
    return got


def test_fpgrowth_equals_apriori_on_salary(salary):
    for minsupp in (0.15, 0.3, 0.5, 0.8):
        assert_same(salary, minsupp)


def test_fpgrowth_on_random_tables():
    for seed in range(5):
        assert_same(make_random_table(seed, n_records=50), 0.2)


def test_fpgrowth_low_threshold():
    table = make_random_table(9, n_records=25, cardinalities=(2, 3, 2))
    assert_same(table, 0.05)


def test_fpgrowth_max_length(salary):
    assert_same(salary, 0.2, max_length=2)
    assert_same(salary, 0.2, max_length=1)


def test_fpgrowth_high_threshold_empty(salary):
    assert assert_same(salary, 0.99) == []


@pytest.mark.parametrize("minsupp", [0.1, 0.4])
def test_fpgrowth_supports_are_exact(salary, minsupp):
    live = [row for tid, row in enumerate(rows_of(salary)) if tid not in (1, 10)]
    for itemset, count in assert_same(salary, minsupp):
        assert count == oracle.support(live, itemset)
