"""Every plan against the brute-force oracle (``tests/oracle.py``).

``charm`` must return exactly the oracle's closed frequent itemsets, and
each of the six forced plans exactly the oracle's rule list for its
family — same rules, same counts, same floats, same order — closed and
expanded, on a pristine index, over main+delta after appends and
deletes, and served from the rule cache's two tiers.  The tables are
small enough to enumerate (24 rows, 4 attributes); the named cases pin
the corners the random ones rarely reach.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Colarm
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.dataset.schema import Attribute, Item, Schema
from repro.dataset.table import RelationalTable
from tests import oracle
from tests.itemsets.reference_charm import charm

MIP_PLANS = [kind for kind in PlanKind if kind is not PlanKind.ARM]


def make_table(cards, rows) -> RelationalTable:
    schema = Schema(tuple(
        Attribute(f"a{i}", tuple(f"v{v}" for v in range(card)))
        for i, card in enumerate(cards)
    ))
    return RelationalTable(schema, np.asarray(rows, dtype=np.int32))


def as_tuples(block):
    return [tuple(rule) for rule in block]


def assert_plans_match_oracle(mx_or_index, stored, live, n_delta, query):
    """All six forced plans, closed and expanded, against the oracle."""
    if isinstance(mx_or_index, MaintainedIndex):
        index, delta = mx_or_index.index, mx_or_index
    else:
        index, delta = mx_or_index, None
    dq = oracle.focal_rows(live, query)
    if not dq:
        return
    for expand in (False, True):
        want = {
            "arm": oracle.arm_rules(live, query, expand),
            "mip": oracle.mip_rules(
                stored, index.primary_support, live, n_delta, query, expand
            ),
        }
        covered = (
            query.minsupp * len(dq)
            >= index.primary_support * len(stored) + (len(live) if delta else 0)
        )
        if expand and covered:
            # The primary floor covers the query: the families coincide.
            assert want["arm"] == want["mip"]
        for kind in PlanKind:
            got = execute_plan(kind, index, query, expand=expand, delta=delta)
            assert got.dq_size == len(dq)
            family = "arm" if kind is PlanKind.ARM else "mip"
            assert as_tuples(got.rules) == want[family], (kind, expand)


@st.composite
def tables(draw, max_card=3):
    n_attrs = draw(st.integers(2, 4))
    cards = [draw(st.integers(2, max_card)) for _ in range(n_attrs)]
    n_rows = draw(st.integers(4, 24))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    # Skewed columns: a few dominant values make long closed itemsets.
    rows = [
        tuple(int(min(rng.geometric(0.55) - 1, card - 1)) for card in cards)
        for _ in range(n_rows)
    ]
    return cards, rows


@st.composite
def queries(draw, cards):
    n_selected = draw(st.integers(0, min(2, len(cards))))
    attrs = draw(st.permutations(range(len(cards))))[:n_selected]
    selections = {
        a: frozenset(draw(st.sets(st.integers(0, cards[a] - 1), min_size=1)))
        for a in attrs
    }
    aitem = draw(st.one_of(
        st.none(),
        st.sets(st.integers(0, len(cards) - 1), min_size=2).map(frozenset),
    ))
    return LocalizedQuery(
        range_selections=selections,
        minsupp=draw(st.sampled_from([0.1, 0.25, 0.4, 0.6, 1.0])),
        minconf=draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
        item_attributes=aitem,
    )


@st.composite
def pristine_cases(draw):
    cards, rows = draw(tables())
    return cards, rows, draw(queries(cards)), draw(
        st.sampled_from([0.1, 0.2, 0.35])
    )


@settings(max_examples=60, deadline=None)
@given(tables(), st.sampled_from([0.1, 0.3, 0.5, 1.0]))
def test_charm_equals_the_oracles_closed_itemsets(table, minsupp):
    cards, rows = table
    mined = charm(make_table(cards, rows).item_tidsets(), len(rows), minsupp)
    want = oracle.closed_itemsets(
        rows, oracle.min_count(minsupp, len(rows)), range(len(cards))
    )
    assert {c.items: c.support_count for c in mined} == want
    assert [c.items for c in mined] == sorted(want, key=lambda s: (len(s), s))


@settings(max_examples=50, deadline=None)
@given(pristine_cases())
def test_six_plans_equal_the_oracle(case):
    cards, rows, query, primary = case
    index = build_mip_index(make_table(cards, rows), primary)
    assert_plans_match_oracle(index, rows, rows, 0, query)


@st.composite
def mutated_cases(draw):
    cards, rows, query, primary = draw(pristine_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    appended = [
        tuple(int(rng.integers(0, card)) for card in cards)
        for _ in range(draw(st.integers(1, 6)))
    ]
    n_total = len(rows) + len(appended)
    deleted = draw(st.sets(st.integers(0, n_total - 1), max_size=4))
    return cards, rows, query, primary, appended, sorted(deleted)


@settings(max_examples=50, deadline=None)
@given(mutated_cases())
def test_six_plans_equal_the_oracle_after_append_and_delete(case):
    cards, rows, query, primary, appended, deleted = case
    mx = MaintainedIndex(make_table(cards, rows), primary)
    mx.append(appended)
    mx.delete(deleted)
    everything = rows + appended
    live = [row for tid, row in enumerate(everything) if tid not in deleted]
    n_delta = sum(
        1 for tid, row in enumerate(everything)
        if tid >= len(rows) and tid not in deleted
        and oracle.focal_rows([row], query)
    )
    if not live:
        return
    assert_plans_match_oracle(mx, rows, live, n_delta, query)


#: (plan, served from the cache?) in the order a cached engine is asked,
#: per ``minconf``: the exact repeat of the populating request, another
#: ``minconf`` (a lattice replay, then its upgraded rules entry), and a
#: third one whose only rules entry is ARM's.
CACHED_LEG = (
    ((None, True), (PlanKind.SVS, True), (PlanKind.ARM, False)),
    ((None, True), (PlanKind.SEV, True), (PlanKind.ARM, False)),
    ((PlanKind.ARM, False), (None, True), (PlanKind.SSEUV, False)),
)


@settings(max_examples=40, deadline=None)
@given(pristine_cases())
def test_cache_serves_equal_the_oracle(case):
    """Rules-tier and lattice-tier serves, optimizer-planned and forced
    per family, closed and expanded: each answer is the oracle's list for
    the family it reports."""
    cards, rows, query, primary = case
    dq = oracle.focal_rows(rows, query)
    if not dq:
        return
    index = build_mip_index(make_table(cards, rows), primary)
    minconfs = [query.minconf] + [
        c for c in (0.0, 0.5, 0.8, 1.0) if c != query.minconf
    ]
    for expand in (False, True):
        engine = Colarm.from_index(index, expand=expand).enable_cache()
        engine.query(query, plan=PlanKind.SSVS)  # populates both tiers
        for minconf, steps in zip(minconfs, CACHED_LEG):
            asked = replace(query, minconf=minconf)
            want = {
                "arm": oracle.arm_rules(rows, asked, expand),
                "mip": oracle.mip_rules(
                    rows, primary, rows, 0, asked, expand
                ),
            }
            for plan, cached in steps:
                out = engine.query(asked, plan=plan)
                assert out.cached == cached, (minconf, plan, expand)
                assert out.dq_size == len(dq)
                family = "arm" if out.plan is PlanKind.ARM else "mip"
                assert as_tuples(out.rules) == want[family], (
                    minconf, plan, expand
                )


# -- the corners ---------------------------------------------------------------

CARDS = (3, 2, 3, 2)
ROWS = [
    (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0),
    (1, 1, 1, 1), (1, 1, 1, 0), (0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 0, 1),
    (0, 0, 0, 0), (1, 1, 0, 0),
]


@pytest.mark.parametrize("minconf", [0.0, 1.0])
@pytest.mark.parametrize("minsupp", [0.2, 1.0])
def test_threshold_extremes(minsupp, minconf):
    index = build_mip_index(make_table(CARDS, ROWS), 0.1)
    query = LocalizedQuery({0: frozenset({0})}, minsupp, minconf)
    assert_plans_match_oracle(index, ROWS, ROWS, 0, query)


def test_one_record_focal_subset():
    index = build_mip_index(make_table(CARDS, ROWS), 0.05)
    query = LocalizedQuery(
        {0: frozenset({1}), 1: frozenset({0}), 2: frozenset({1})}, 0.5, 0.5
    )
    assert oracle.focal_rows(ROWS, query) == [(1, 0, 1, 1)]
    assert_plans_match_oracle(index, ROWS, ROWS, 0, query)


def test_item_present_only_in_the_delta():
    mx = MaintainedIndex(make_table(CARDS, ROWS), 0.1)
    appended = [(2, 0, 2, 0), (2, 0, 2, 1), (2, 1, 2, 0)]  # values 2: new
    assert all(row[0] != 2 and row[2] != 2 for row in ROWS)
    mx.append(appended)
    live = ROWS + appended
    for selections in ({}, {0: frozenset({2})}, {1: frozenset({0})}):
        query = LocalizedQuery(selections, 0.15, 0.5)
        n_delta = len(oracle.focal_rows(appended, query))
        assert_plans_match_oracle(mx, ROWS, live, n_delta, query)


def test_schema_of_more_than_64_items():
    """Item ids past a machine word: sub-itemset naming, CHARM's item masks
    and the packed sort keys must not cap at 64 items."""
    cards = (40, 3, 30, 3)
    rng = np.random.default_rng(7)
    rows = [
        (int(rng.choice([0, 38, 39])), int(rng.integers(0, 3)),
         int(rng.choice([1, 28, 29])), int(rng.integers(0, 2)))
        for _ in range(24)
    ]
    table = make_table(cards, rows)
    assert table.schema.n_items == 76
    assert max(table.item_ids()) >= 64
    index = build_mip_index(table, 0.08)
    mx = MaintainedIndex(make_table(cards, rows), 0.08)
    appended = [(39, 2, 29, 2), (39, 2, 29, 2), (38, 1, 29, 2)]
    mx.append(appended)
    mx.delete([0, 3, 25])
    live = [r for t, r in enumerate(rows + appended) if t not in (0, 3, 25)]
    for query in (
        LocalizedQuery({}, 0.1, 0.5),
        LocalizedQuery({0: frozenset({38, 39})}, 0.2, 0.6),
        LocalizedQuery({2: frozenset({29})}, 0.15, 0.0,
                       item_attributes=frozenset({0, 2, 3})),
    ):
        assert_plans_match_oracle(index, rows, rows, 0, query)
        n_delta = len(oracle.focal_rows(
            [appended[0], appended[2]], query
        ))
        assert_plans_match_oracle(mx, rows, live, n_delta, query)
    rules = execute_plan(PlanKind.SSVS, index, LocalizedQuery({}, 0.1, 0.5)).rules
    assert any(
        table.schema.item_id(item) >= 64
        for rule in rules for item in (*rule.antecedent, *rule.consequent)
    )
    assert Item(0, 39) in {i for rule in rules for i in rule.antecedent}
