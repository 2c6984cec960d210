"""The isolated online-mining operators against brute-force ground truth."""

import numpy as np
import pytest

from repro import tidset as ts
from repro.core.mipindex import build_mip_index
from repro.core.operators import (
    QualifiedArray,
    make_context,
    op_arm,
    op_eliminate,
    op_search,
    op_select,
    op_supported_search,
    op_supported_verify,
    op_union,
    op_verify,
)
from repro.core.query import LocalizedQuery
from repro.errors import QueryError
from repro.itemsets.itemset import min_count_for
from tests.conftest import make_random_table
from tests.core.reference_mips import (
    Overlap,
    candidate_pairs,
    classify,
    qualified_pairs,
    ref_mips,
)


@pytest.fixture(scope="module")
def setup():
    table = make_random_table(seed=3, n_records=80,
                              cardinalities=(4, 3, 3, 2, 3))
    index = build_mip_index(table, primary_support=0.05)
    query = LocalizedQuery(
        range_selections={0: frozenset({1, 2}), 1: frozenset({0})},
        minsupp=0.3,
        minconf=0.6,
    )
    return table, index, query


def test_make_context(setup):
    table, index, query = setup
    ctx = make_context(index, query)
    expected_dq = table.tids_matching(query.range_selections)
    assert ctx.dq == expected_dq
    assert ctx.dq_size == ts.count(expected_dq)
    assert ctx.min_count == min_count_for(query.minsupp, ctx.dq_size)
    assert ctx.trace.by_name("FOCUS") is not None


def test_make_context_empty_focal(setup):
    _, index, _ = setup
    # attribute 3 has cardinality 2; an impossible pair of selections:
    query = LocalizedQuery(
        range_selections={3: frozenset({0})}, minsupp=0.5, minconf=0.5
    )
    # make it empty by intersecting two disjoint single-value picks
    table = index.table
    mask = table.tids_matching({3: frozenset({0})})
    if mask:  # fall back: choose a value that never occurs? build synthetic
        query = LocalizedQuery(
            range_selections={0: frozenset({1}), 1: frozenset({1})},
            minsupp=0.5, minconf=0.5,
        )
        if table.tids_matching(query.range_selections):
            pytest.skip("no empty focal subset available in this dataset")
    with pytest.raises(QueryError):
        make_context(index, query)


def test_search_exact_overlap(setup):
    table, index, query = setup
    ctx = make_context(index, query)
    candidates = candidate_pairs(ctx.index, op_search(ctx))
    got = {mip.itemset for mip, _ in candidates}
    expected = {
        mip.itemset
        for mip in ref_mips(index)
        if classify(ctx.focal, mip.box) is not Overlap.DISJOINT
    }
    assert got == expected
    for mip, overlap in candidates:
        assert overlap == classify(ctx.focal, mip.box)
        assert overlap is not Overlap.DISJOINT


def test_supported_search_filters_by_count(setup):
    table, index, query = setup
    ctx = make_context(index, query)
    plain = {m.itemset for m, _ in candidate_pairs(ctx.index, op_search(ctx))}
    supported = {
        m.itemset for m, _ in candidate_pairs(ctx.index, op_supported_search(ctx))
    }
    expected = {
        mip.itemset
        for mip in ref_mips(index)
        if classify(ctx.focal, mip.box) is not Overlap.DISJOINT
        and mip.global_count >= ctx.min_count
    }
    assert supported == expected
    assert supported <= plain


def test_eliminate_exact_local_counts(setup):
    table, index, query = setup
    ctx = make_context(index, query)
    candidates = op_search(ctx)
    qualified = qualified_pairs(ctx.index, op_eliminate(ctx, candidates))
    for mip, local in qualified:
        truth = ts.count(table.itemset_tidset(mip.itemset) & ctx.dq)
        assert local == truth
        assert local >= ctx.min_count
    surviving = {m.itemset for m, _ in qualified}
    for mip, _ in candidate_pairs(ctx.index, candidates):
        truth = ts.count(table.itemset_tidset(mip.itemset) & ctx.dq)
        assert (mip.itemset in surviving) == (truth >= ctx.min_count)


def test_eliminate_applies_aitem(setup):
    table, index, _ = setup
    query = LocalizedQuery(
        range_selections={0: frozenset({1, 2})},
        minsupp=0.2,
        minconf=0.5,
        item_attributes=frozenset({1, 2}),
    )
    ctx = make_context(index, query)
    qualified = op_eliminate(ctx, op_search(ctx))
    for mip, _ in qualified_pairs(ctx.index, qualified):
        assert all(item.attribute in {1, 2} for item in mip.itemset)


def test_verify_rules_are_correct(setup):
    """Every rule's support and confidence re-checked by direct counting."""
    table, index, query = setup
    ctx = make_context(index, query)
    qualified = op_eliminate(ctx, op_search(ctx))
    rules = op_verify(ctx, qualified)
    assert rules, "expected at least one rule in this setup"
    for rule in rules:
        items_count = ts.count(table.itemset_tidset(rule.items) & ctx.dq)
        ante_count = ts.count(table.itemset_tidset(rule.antecedent) & ctx.dq)
        assert rule.support_count == items_count
        assert rule.support == pytest.approx(items_count / ctx.dq_size)
        assert rule.confidence == pytest.approx(items_count / ante_count)
        assert rule.confidence >= query.minconf
        assert items_count >= ctx.min_count


def test_supported_verify_equals_eliminate_verify(setup):
    table, index, query = setup
    ctx1 = make_context(index, query)
    rules1 = op_verify(ctx1, op_eliminate(ctx1, op_search(ctx1)))
    ctx2 = make_context(index, query)
    rules2 = op_supported_verify(ctx2, op_search(ctx2))
    key = lambda rs: [(r.antecedent, r.consequent, r.support_count) for r in rs]
    assert key(rules1) == key(rules2)


def test_union_merges(setup):
    _, index, query = setup
    ctx = make_context(index, query)
    a = QualifiedArray(np.asarray([0]), np.asarray([5]))
    b = QualifiedArray(np.asarray([1]), np.asarray([7]))
    merged = op_union(ctx, a, b)
    assert merged.rows.tolist() == [0, 1]
    assert merged.local_counts.tolist() == [5, 7]
    assert ctx.trace.by_name("UNION").output_size == 2


def test_contained_mips_local_equals_global(setup):
    """Lemma 4.5 on real data: contained MIP => local count == global count."""
    table, index, query = setup
    ctx = make_context(index, query)
    found = 0
    for mip, overlap in candidate_pairs(ctx.index, op_search(ctx)):
        if overlap is Overlap.CONTAINED:
            assert ts.count(mip.tidset & ctx.dq) == mip.global_count
            found += 1
    # the check is vacuous if no contained MIPs exist in this setup
    if found == 0:
        pytest.skip("no contained MIPs in this configuration")


def test_select_extracts_focal_subset(setup):
    table, index, query = setup
    ctx = make_context(index, query)
    sub = op_select(ctx)
    # Vertical form, one tidset per item id: bit ``p`` of an item's tidset
    # is the ``p``-th focal record, so reading the tidsets column-wise
    # gives the records back.
    items = table.schema.items_by_id
    assert len(sub) == len(items)
    tids = ts.to_list(ctx.dq)
    assert ctx.trace.by_name("SELECT").output_size == len(tids)
    for p, tid in enumerate(tids):
        record = tuple(
            item for item, mask in zip(items, sub) if mask >> p & 1
        )
        assert record == table.record(tid)
    assert all(mask >> len(tids) == 0 for mask in sub)


def test_arm_rules_are_correct(setup):
    table, index, query = setup
    ctx = make_context(index, query)
    sub = op_select(ctx)
    rules = op_arm(ctx, sub)
    for rule in rules:
        items_count = ts.count(table.itemset_tidset(rule.items) & ctx.dq)
        ante_count = ts.count(table.itemset_tidset(rule.antecedent) & ctx.dq)
        assert rule.support_count == items_count
        assert rule.confidence == pytest.approx(items_count / ante_count)
        assert rule.confidence >= query.minconf


def test_traces_record_operator_sequence(setup):
    _, index, query = setup
    ctx = make_context(index, query)
    op_verify(ctx, op_eliminate(ctx, op_search(ctx)))
    names = [op.name for op in ctx.trace.operators]
    assert names == ["FOCUS", "SEARCH", "ELIMINATE", "VERIFY"]
    assert ctx.trace.total_elapsed() >= 0.0
