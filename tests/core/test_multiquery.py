"""Multi-query batching: identical output, shared work."""

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


def rule_key(rules):
    return sorted((r.antecedent, r.consequent, r.support_count) for r in rules)


def test_batch_matches_individual_execution(index):
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
        LocalizedQuery({0: frozenset({1})}, 0.4, 0.8),      # same subset
        LocalizedQuery({1: frozenset({0, 1})}, 0.3, 0.6),   # different subset
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6,
                       item_attributes=frozenset({1, 2})),
    ]
    report = execute_batch(index, queries)
    assert report.n_queries == 4
    for item, query in zip(report.items, queries):
        solo = execute_plan(PlanKind.SEV, index, query)
        assert rule_key(item.rules) == rule_key(solo.rules), query
        assert item.dq_size == solo.dq_size


def test_batch_shares_focal_groups(index):
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
        LocalizedQuery({0: frozenset({1})}, 0.5, 0.9),
        LocalizedQuery({0: frozenset({2})}, 0.3, 0.6),
    ]
    report = execute_batch(index, queries)
    assert report.n_groups == 2
    assert report.n_searches == 2
    assert report.items[0].shared_group == report.items[1].shared_group
    assert report.items[0].shared_group != report.items[2].shared_group


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
    assert report.n_searches == 1
    assert report.items[0].shared_group == report.items[1].shared_group
    for item, query in zip(report.items, queries):
        solo = execute_plan(PlanKind.SEV, index, query)
        assert rule_key(item.rules) == rule_key(solo.rules), query


def test_batch_shares_lattice_counts_across_thresholds(index):
    """Same focal subset probed at several minconfs: later queries replay
    the memoized subset-lattice rows instead of recounting."""
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.75),
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.9),
    ]
    report = execute_batch(index, queries)
    assert report.lattice_hits > 0
    for item, query in zip(report.items, queries):
        solo = execute_plan(PlanKind.SEV, index, query)
        assert rule_key(item.rules) == rule_key(solo.rules), query


def test_batch_lattice_hits_zero_for_distinct_subsets(index):
    queries = [
        LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
        LocalizedQuery({0: frozenset({2})}, 0.3, 0.6),
    ]
    report = execute_batch(index, queries)
    assert report.lattice_hits == 0


def test_batch_expand_mode(index):
    queries = [LocalizedQuery({0: frozenset({1})}, 0.35, 0.7)]
    report = execute_batch(index, queries, expand=True)
    solo = execute_plan(PlanKind.SEV, index, queries[0], expand=True)
    assert rule_key(report.items[0].rules) == rule_key(solo.rules)


def test_empty_batch_rejected(index):
    with pytest.raises(QueryError):
        execute_batch(index, [])


def test_batch_rejects_empty_subset(index):
    table = index.table
    impossible = LocalizedQuery(
        {0: frozenset({0}), 1: frozenset({2}), 2: frozenset({0}),
         3: frozenset({1}), 4: frozenset({2})},
        0.3, 0.5,
    )
    if table.tids_matching(impossible.range_selections):
        pytest.skip("selection unexpectedly non-empty")
    with pytest.raises(QueryError):
        execute_batch(index, [impossible])


def test_batch_counts_each_source_once_at_any_threshold_order(
    index, monkeypatch
):
    """One group asked at descending, then ascending minsupp: every source
    is counted once, and each answer is the one-at-a-time answer, rule
    for rule in the same order."""
    counted = []
    count = FocalKernel.count_subset_lattice

    def recording(kernel, itemsets, floor=None):
        counted.extend((id(kernel), tuple(row)) for row in np.asarray(itemsets))
        return count(kernel, itemsets, floor)

    monkeypatch.setattr(FocalKernel, "count_subset_lattice", recording)
    queries = [
        LocalizedQuery({0: frozenset({1})}, minsupp, 0.6)
        for minsupp in (0.5, 0.4, 0.3, 0.2, 0.3, 0.4, 0.5)
    ]
    report = execute_batch(index, queries)
    assert report.n_groups == 1
    assert counted and len(set(counted)) == len(counted)
    assert report.lattice_hits > 0
    monkeypatch.undo()
    for item, query in zip(report.items, queries):
        solo = execute_plan(PlanKind.SEV, index, query)
        assert item.rules == solo.rules, query
