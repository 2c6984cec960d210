"""Parameter suggestion (future-work extension (a))."""

import pytest

from repro.core.mipindex import build_mip_index
from repro.core.paramsuggest import (
    suggest_minconf,
    suggest_minsupp,
    suggest_ranges,
)
from repro.dataset.synthetic import quest_like
from repro.errors import QueryError
from repro.itemsets.itemset import min_count_for
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def index():
    return build_mip_index(quest_like(n_records=400, n_categories=4, seed=3),
                           primary_support=0.05)


def test_suggest_minsupp_hits_quantile(index):
    minsupp = suggest_minsupp(index, qualify_fraction=0.25)
    assert index.primary_support <= minsupp <= 1.0
    counts = index.stats.sorted_global_counts
    floor = minsupp * index.table.n_records
    qualifying = (counts >= floor).mean()
    assert qualifying == pytest.approx(0.25, abs=0.1)


def test_suggest_minsupp_clamped_to_primary(index):
    # Asking for everything to qualify would dip below the primary floor.
    assert suggest_minsupp(index, qualify_fraction=1.0) >= index.primary_support


def test_suggest_minsupp_validation(index):
    with pytest.raises(QueryError):
        suggest_minsupp(index, qualify_fraction=0.0)


def test_suggest_minconf_in_range(index):
    minconf = suggest_minconf(index, target_fraction=0.3)
    assert 0.0 <= minconf <= 1.0


def test_suggest_minconf_monotone(index):
    strict = suggest_minconf(index, target_fraction=0.1)
    loose = suggest_minconf(index, target_fraction=0.9)
    assert strict >= loose


def test_suggest_ranges_surfaces_planted_regions(index):
    """quest_like plants region-local patterns; the region attribute's
    values should rank among the suggested focal subsets."""
    suggestions = suggest_ranges(index, minsupp=0.3, top_k=6)
    assert suggestions
    region = index.table.schema.attribute_index("region")
    assert any(s.attribute == region for s in suggestions)
    for s in suggestions:
        assert s.dq_size > 0
        assert s.fresh_local_itemsets >= 0
        text = s.describe(index.table.schema)
        assert "fresh local itemsets" in text


def test_suggest_ranges_counts_are_exact(index):
    """Recompute one suggestion's fresh/repeated split by hand."""
    from repro import tidset as ts
    from repro.dataset.schema import Item

    suggestions = suggest_ranges(index, minsupp=0.3, top_k=1)
    s = suggestions[0]
    table = index.table
    value = next(iter(s.values))
    mask = table.item_tidset(Item(s.attribute, value))
    local_floor = min_count_for(0.3, ts.count(mask))
    global_floor = min_count_for(0.3, table.n_records)
    fresh = repeated = 0
    for mip in index.mips:
        if Item(s.attribute, value) in mip.itemset:
            continue
        if ts.count(mip.tidset & mask) >= local_floor:
            if mip.global_count >= global_floor:
                repeated += 1
            else:
                fresh += 1
    assert (fresh, repeated) == (s.fresh_local_itemsets,
                                 s.repeated_global_itemsets)
