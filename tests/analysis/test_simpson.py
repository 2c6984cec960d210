"""Simpson's-paradox analysis: planted patterns must be detected."""

import pytest

from repro.analysis.simpson import (
    compare_itemsets,
    find_rule_flips,
    find_vanishing_rules,
)
from repro.core.mipindex import build_mip_index
from repro.core.query import LocalizedQuery
from repro.dataset.synthetic import quest_like
from repro.itemsets.itemset import min_count_for


@pytest.fixture(scope="module")
def index():
    return build_mip_index(quest_like(n_records=600, n_categories=4, seed=3),
                           primary_support=0.05)


@pytest.fixture(scope="module")
def region_query(index):
    region = index.table.schema.attribute_index("region")
    categories = frozenset(
        i for i, a in enumerate(index.table.schema.attributes)
        if a.name.startswith("cat")
    )
    return LocalizedQuery(
        range_selections={region: frozenset({0})},
        minsupp=0.35,
        minconf=0.75,
        item_attributes=categories,
    )


def test_compare_itemsets_split_is_exact(index, region_query):
    split = compare_itemsets(index, region_query)
    assert split.n_local == split.n_fresh + split.n_repeated
    global_floor = min_count_for(region_query.minsupp, index.table.n_records)
    fresh_items = set(split.fresh_local)
    for itemset in split.fresh_local:
        assert index.table.support_count(itemset) < global_floor
    for itemset in split.repeated_global:
        assert index.table.support_count(itemset) >= global_floor
        assert itemset not in fresh_items


def test_fresh_local_itemsets_exist(index, region_query):
    """The planted region-0 cross-sell must produce fresh local itemsets."""
    split = compare_itemsets(index, region_query)
    assert split.n_fresh > 0


def test_compare_with_custom_global_threshold(index, region_query):
    lenient = compare_itemsets(index, region_query, global_minsupp=0.01)
    strict = compare_itemsets(index, region_query, global_minsupp=0.9)
    assert lenient.n_fresh <= strict.n_fresh
    assert lenient.n_local == strict.n_local


def test_find_rule_flips_detects_planted_pattern(index, region_query):
    flips = find_rule_flips(index, region_query, margin=0.05)
    assert flips, "planted cross-sell should flip at least one rule"
    schema = index.table.schema
    for flip in flips:
        assert flip.local_confidence >= region_query.minconf
        assert flip.global_confidence < region_query.minconf - 0.05
        assert flip.direction == "emerges"
    # flips sorted by confidence gap, largest first
    gaps = [f.local_confidence - f.global_confidence for f in flips]
    assert gaps == sorted(gaps, reverse=True)
    # the strongest flip involves the planted cat0/cat1 high-high pair
    top_items = {schema.render_item(i) for f in flips[:5] for i in f.rule.items}
    assert any("high" in t for t in top_items)


def test_flip_global_confidence_is_exact(index, region_query):
    table = index.table
    for flip in find_rule_flips(index, region_query)[:10]:
        g_conf = (
            table.support_count(flip.rule.items)
            / table.support_count(flip.rule.antecedent)
        )
        assert flip.global_confidence == pytest.approx(g_conf)


def test_find_vanishing_rules_recovers_paper_example():
    """The paper's R_G vanishes for Seattle's female employees."""
    from repro.dataset.salary import salary_dataset

    salary = salary_dataset()
    index = build_mip_index(salary, primary_support=0.15)
    query = LocalizedQuery.from_labels(
        salary.schema,
        ranges={"Location": ["Seattle"], "Gender": ["F"]},
        minsupp=0.5,
        minconf=0.8,
    )
    vanishing = find_vanishing_rules(index, query, global_minsupp=0.4)
    a0 = salary.schema.item("Age", "20-30")
    s2 = salary.schema.item("Salary", "90K-120K")
    match = [
        f for f in vanishing
        if f.rule.antecedent == (a0,) and f.rule.consequent == (s2,)
    ]
    assert match, "R_G must be reported as vanishing in the Seattle-F subset"
    flip = match[0]
    assert flip.global_confidence == pytest.approx(5 / 6)
    assert flip.local_confidence == pytest.approx(0.0)
    assert flip.direction == "vanishes"


def test_vanishing_rules_sorted_and_exact(index, region_query):
    table = index.table
    vanishing = find_vanishing_rules(index, region_query, global_minsupp=0.3)
    drops = [f.global_confidence - f.local_confidence for f in vanishing]
    assert drops == sorted(drops, reverse=True)
    from repro import tidset as ts

    dq = table.tids_matching(region_query.range_selections)
    for flip in vanishing[:10]:
        l_ante = ts.count(table.itemset_tidset(flip.rule.antecedent) & dq)
        l_both = ts.count(table.itemset_tidset(flip.rule.items) & dq)
        assert flip.local_confidence == pytest.approx(l_both / l_ante)
        assert flip.local_confidence < region_query.minconf
        assert flip.global_confidence >= region_query.minconf
