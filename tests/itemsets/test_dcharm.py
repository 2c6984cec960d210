"""CHARM over a focal projection returns the itemsets closed *in* it.

dCHARM left ``src/`` in PR 24; the second CHARM entry a request runs is
``closed_masks`` in the integer item space, over the item rows projected
onto ``D^Q`` (what SELECT hands ARM).  It is held here to the oracle's
closed itemsets of the same records, and on the whole table to
``charm``, the ``Item``-tuple edge.  The test ids are the ones the floor
file tracks, hence the names.
"""

from tests import oracle
from tests.conftest import make_random_table
from tests.itemsets.enumerations import closed_by_projection, focal_rows
from tests.itemsets.reference_charm import charm


def assert_same(table, minsupp, dq=None):
    rows = focal_rows(table, dq)
    got = closed_by_projection(table, minsupp, dq)
    assert got == oracle.closed_itemsets(
        rows, oracle.min_count(minsupp, len(rows)), range(table.n_attributes)
    )
    if dq is None:
        mined = charm(table.item_tidsets(), table.n_records, minsupp)
        assert got == {c.items: c.support_count for c in mined}
    return got


def test_dcharm_equals_charm_on_salary(salary):
    for minsupp in (0.15, 0.3, 0.5, 0.8):
        assert_same(salary, minsupp)


def test_dcharm_on_random_tables():
    for seed in range(6):
        table = make_random_table(seed, n_records=60)
        assert_same(table, 0.15)
        assert_same(table, 0.15, dq=table.tids_matching({0: {0, 2}}))


def test_dcharm_on_dense_data():
    """Dense data — long closed itemsets, most tidsets nested."""
    from repro.dataset.synthetic import chess_like

    table = chess_like(n_records=150, n_attributes=6, seed=3)
    assert_same(table, 0.3)
    assert_same(table, 0.15, dq=table.tids_matching({0: {1, 3}}))


def test_dcharm_high_threshold_empty(salary):
    assert assert_same(salary, 0.99) == {}


def test_dcharm_supports_are_exact(salary):
    for itemset, count in assert_same(salary, 0.2).items():
        assert count == salary.support_count(itemset)
