"""Multi-query batching: one plan execution per focal group, each query's
answer equal to its solo answer rule for rule, in order."""

import itertools

import numpy as np
import pytest

from repro.core.mipindex import build_mip_index
from repro.core.multiquery import execute_batch
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.errors import QueryError
from repro.kernels import FocalKernel
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def index():
    table = make_random_table(seed=51, n_records=100,
                              cardinalities=(4, 3, 3, 2, 3))
    return build_mip_index(table, primary_support=0.05)


@pytest.fixture
def lattice_calls(monkeypatch):
    """Records the itemset rows of every sub-itemset table counted."""
    calls = []
    count = FocalKernel.count_subset_lattice

    def recording(kernel, itemsets, floor=None, **named):
        calls.append([tuple(row) for row in np.asarray(itemsets)])
        return count(kernel, itemsets, floor, **named)

    monkeypatch.setattr(FocalKernel, "count_subset_lattice", recording)
    return calls


def assert_solo_answers(index, report, queries, expand=False):
    assert report.n_queries == len(queries)
    for item, query in zip(report.items, queries):
        solo = execute_plan(PlanKind.SEV, index, query, expand=expand)
        assert item.query is query
        assert len(item.rules) == solo.n_rules, query
        assert item.rules == solo.rules, query
        assert item.dq_size == solo.dq_size


def test_batch_matches_individual_execution(index):
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
        LocalizedQuery({0: frozenset({1})}, 0.4, 0.8),      # same subset
        LocalizedQuery({1: frozenset({0, 1})}, 0.3, 0.6),   # different subset
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6,
                       item_attributes=frozenset({1, 2})),
    ]
    report = execute_batch(index, queries)
    assert any(len(item.rules) for item in report.items)
    assert_solo_answers(index, report, queries)


def test_batch_shares_focal_groups(index):
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
        LocalizedQuery({0: frozenset({1})}, 0.5, 0.9),
        LocalizedQuery({0: frozenset({2})}, 0.3, 0.6),
    ]
    report = execute_batch(index, queries)
    assert report.n_groups == 2
    assert report.items[0].shared_group == report.items[1].shared_group
    assert report.items[0].shared_group != report.items[2].shared_group


def test_batch_groups_by_item_attributes(index, lattice_calls):
    """One focal subset asked with and without ``Aitem``: the filter
    changes the sources, so the two are separate groups."""
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6,
                       item_attributes=frozenset({0, 2, 3})),
        LocalizedQuery({0: frozenset({1})}, 0.4, 0.8),
        LocalizedQuery({0: frozenset({1})}, 0.25, 0.7,
                       item_attributes=frozenset({0, 2, 3})),
    ]
    report = execute_batch(index, queries)
    assert report.n_groups == 2
    assert [item.shared_group for item in report.items] == [0, 1, 0, 1]
    assert len(lattice_calls) == 2
    assert_solo_answers(index, report, queries)


def test_batch_groups_canonical_focal_subsets(index):
    """A full-domain selection spells the same focal subset implicitly:
    queries differing only in thresholds (and spelling) share one group."""
    cards = index.cardinalities
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
        LocalizedQuery(
            {0: frozenset({1}), 1: frozenset(range(cards[1]))}, 0.4, 0.8
        ),
    ]
    report = execute_batch(index, queries)
    assert report.n_groups == 1
    assert report.items[0].shared_group == report.items[1].shared_group
    assert_solo_answers(index, report, queries)


def test_batch_shares_lattice_counts_across_thresholds(index, lattice_calls):
    """Same focal subset probed at several minconfs: one sub-itemset
    table is counted for the whole group."""
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.75),
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.9),
    ]
    report = execute_batch(index, queries)
    assert report.n_groups == 1
    assert len(lattice_calls) == 1
    assert_solo_answers(index, report, queries)


def test_batch_lattice_hits_zero_for_distinct_subsets(index, lattice_calls):
    """Distinct focal subsets share nothing: one table per group."""
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
        LocalizedQuery({0: frozenset({2})}, 0.3, 0.6),
    ]
    report = execute_batch(index, queries)
    assert report.n_groups == 2
    assert len(lattice_calls) == 2


def test_batch_expand_mode(index, lattice_calls):
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.35, 0.7),
        LocalizedQuery({0: frozenset({1})}, 0.25, 0.8),
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6,
                       item_attributes=frozenset({0, 2, 3})),
    ]
    report = execute_batch(index, queries, expand=True)
    assert report.n_groups == 2
    assert len(lattice_calls) == 2
    assert_solo_answers(index, report, queries, expand=True)


def test_empty_batch_rejected(index):
    with pytest.raises(QueryError):
        execute_batch(index, [])


def test_batch_rejects_empty_subset(index):
    table = index.table
    cells = itertools.product(*map(range, index.cardinalities))
    impossible = next(
        query for query in (
            LocalizedQuery(
                {a: frozenset({v}) for a, v in enumerate(cell)}, 0.3, 0.5
            )
            for cell in cells
        )
        if not table.tids_matching(query.range_selections)
    )
    with pytest.raises(QueryError):
        execute_batch(index, [impossible])
    with pytest.raises(QueryError):
        execute_batch(
            index, [LocalizedQuery({0: frozenset({1})}, 0.3, 0.6), impossible]
        )


def test_batch_counts_each_source_once_at_any_threshold_order(
    index, lattice_calls
):
    """One group asked at ascending, descending or mixed minsupp, in
    closed and expanded mode: one table, every source in it once, and
    each answer is the one-at-a-time answer, rule for rule in the same
    order."""
    for expand in (False, True):
        for minsupps in (
            (0.2, 0.3, 0.4, 0.5),
            (0.5, 0.4, 0.3, 0.2),
            (0.5, 0.4, 0.3, 0.2, 0.3, 0.4, 0.5),
        ):
            queries = [
                LocalizedQuery({0: frozenset({1})}, minsupp, 0.6)
                for minsupp in minsupps
            ]
            lattice_calls.clear()
            report = execute_batch(index, queries, expand=expand)
            assert report.n_groups == 1
            assert len(lattice_calls) == 1
            (counted,) = lattice_calls
            assert counted and len(set(counted)) == len(counted)
            assert_solo_answers(index, report, queries, expand=expand)
