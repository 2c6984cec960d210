"""Parameter suggestion (future-work extension (a))."""

import pytest

from repro.core.mipindex import build_mip_index
from repro.core.paramsuggest import (
    suggest_minconf,
    suggest_minsupp,
    suggest_ranges,
)
from repro.dataset.schema import Item
from repro.dataset.synthetic import quest_like
from repro.errors import QueryError
from repro.itemsets.itemset import min_count_for
from tests import oracle
from tests.conftest import make_random_table
from tests.core.reference_mips import ref_mips


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
    for mip in ref_mips(index):
        if Item(s.attribute, value) in mip.itemset:
            continue
        if ts.count(mip.tidset & mask) >= local_floor:
            if mip.global_count >= global_floor:
                repeated += 1
            else:
                fresh += 1
    assert (fresh, repeated) == (s.fresh_local_itemsets,
                                 s.repeated_global_itemsets)


def test_suggest_ranges_equals_brute_force(salary):
    """Every single-value subset's fresh/repeated split, recounted by
    scanning rows (``tests/oracle.py``) over the closed itemsets the index
    stores, on the salary table and a random one."""
    minsupp = 0.3
    for table, primary in (
        (salary, 0.15),
        (make_random_table(seed=17, n_records=80), 0.05),
    ):
        index = build_mip_index(table, primary_support=primary)
        rows = [tuple(int(v) for v in row) for row in table.data]
        attributes = range(table.n_attributes)
        stored = oracle.closed_itemsets(
            rows, oracle.min_count(primary, len(rows)), attributes
        )
        global_floor = oracle.min_count(minsupp, len(rows))
        want = []
        items = {Item(a, row[a]) for row in rows for a in attributes}
        for item in sorted(items):
            subset = [row for row in rows if row[item.attribute] == item.value]
            if len(subset) < 0.02 * len(rows):
                continue
            floor = oracle.min_count(minsupp, len(subset))
            frequent = [
                itemset for itemset in stored
                if item not in itemset
                and oracle.support(subset, itemset) >= floor
            ]
            repeated = sum(
                oracle.support(rows, itemset) >= global_floor
                for itemset in frequent
            )
            want.append((item.attribute, item.value, len(subset),
                         len(frequent) - repeated, repeated))
        got = suggest_ranges(index, minsupp, top_k=len(want))
        assert sorted(
            (s.attribute, *s.values, s.dq_size, s.fresh_local_itemsets,
             s.repeated_global_itemsets)
            for s in got
        ) == want
        assert [s.fresh_local_itemsets for s in got] == sorted(
            (s.fresh_local_itemsets for s in got), reverse=True
        )
