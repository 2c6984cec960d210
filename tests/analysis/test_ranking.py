"""Rule ranking by interestingness measures."""

import pytest

from repro import tidset as ts
from repro.analysis.ranking import MEASURES, localized_rule_stats, rank_rules
from repro.core.mipindex import build_mip_index
from repro.core.operators import make_context, op_eliminate, op_search, op_verify
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.errors import QueryError
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def setup():
    table = make_random_table(seed=91, n_records=100,
                              cardinalities=(4, 3, 3, 2))
    index = build_mip_index(table, primary_support=0.05)
    query = LocalizedQuery({0: frozenset({1, 2})}, 0.3, 0.5)
    ctx = make_context(index, query)
    rules = op_verify(ctx, op_eliminate(ctx, op_search(ctx)))
    assert rules
    return index, ctx, rules


def test_stats_are_exact(setup):
    index, ctx, rules = setup
    table = index.table
    for rule in rules[:20]:
        stats = localized_rule_stats(index, rule, ctx.dq)
        assert stats.n == ctx.dq_size
        assert stats.n_xy == ts.count(table.itemset_tidset(rule.items) & ctx.dq)
        assert stats.n_x == ts.count(
            table.itemset_tidset(rule.antecedent) & ctx.dq
        )
        assert stats.n_y == ts.count(
            table.itemset_tidset(rule.consequent) & ctx.dq
        )


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_rank_rules_sorted_descending(setup, measure):
    index, ctx, rules = setup
    ranked = rank_rules(index, rules, ctx.dq, measure=measure)
    scores = [score for _, score in ranked]
    assert scores == sorted(scores, reverse=True)
    assert len(ranked) == len(rules)


def test_rank_rules_top_k(setup):
    index, ctx, rules = setup
    ranked = rank_rules(index, rules, ctx.dq, top_k=3)
    assert len(ranked) == min(3, len(rules))


def test_rank_rules_callable_measure(setup):
    index, ctx, rules = setup
    ranked = rank_rules(index, rules, ctx.dq, measure=lambda s: s.support)
    assert ranked[0][1] == max(r.support for r in rules)


def test_unknown_measure(setup):
    index, ctx, rules = setup
    with pytest.raises(QueryError):
        rank_rules(index, rules, ctx.dq, measure="wizardry")


def test_rank_rules_scores_an_arm_plan_answer():
    """An ARM answer holds rules whose parts lie under the index's primary
    floor — locally frequent, globally rare — and they rank like any
    other (this raised ``QueryError`` while counts came from closure
    lookups among the stored itemsets)."""
    table = make_random_table(seed=91, n_records=100,
                              cardinalities=(4, 3, 3, 2))
    index = build_mip_index(table, primary_support=0.4)
    query = LocalizedQuery({0: frozenset({1})}, 0.2, 0.5)
    rules = execute_plan(PlanKind.ARM, index, query).rules
    floor = 0.4 * table.n_records
    assert any(table.support_count(rule.items) < floor for rule in rules)
    dq = table.tids_matching(query.range_selections)
    ranked = rank_rules(index, rules, dq)
    assert sorted(rule for rule, _ in ranked) == list(rules)
    for rule in rules:
        stats = localized_rule_stats(index, rule, dq)
        assert stats.n_xy == rule.support_count
        assert stats.n_y == ts.count(
            table.itemset_tidset(rule.consequent) & dq
        )
