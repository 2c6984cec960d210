"""Property tests: the materialized cache never changes answers.

Three invariants on random tables, queries, and interleavings:

* cache-served rules are byte-identical to fresh execution for every one
  of the six plans (list equality, not set equality — order included);
* under random interleavings of queries, index mutations, and explicit
  invalidation, a served result always equals the fresh execution at the
  current generation (stale entries are dropped, never served);
* under an adversarially tight byte budget the accounting invariant
  holds after every insert: ``current_bytes <= budget_bytes``, and the
  byte counter matches the sum over live entries exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import RuleCache
from repro.core.engine import Colarm
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable


@st.composite
def tables(draw):
    n_attrs = draw(st.integers(min_value=3, max_value=4))
    cards = [draw(st.integers(min_value=2, max_value=4)) for _ in range(n_attrs)]
    n_records = draw(st.integers(min_value=20, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    data = np.column_stack(
        [rng.integers(0, c, size=n_records) for c in cards]
    ).astype(np.int32)
    attrs = tuple(
        Attribute(f"a{i}", tuple(f"v{v}" for v in range(c)))
        for i, c in enumerate(cards)
    )
    return RelationalTable(Schema(attrs), data)


def query_for(draw, table):
    cards = [len(a.values) for a in table.schema.attributes]
    ai = draw(st.integers(min_value=0, max_value=len(cards) - 1))
    values = draw(st.sets(
        st.integers(min_value=0, max_value=cards[ai] - 1),
        min_size=1, max_size=cards[ai],
    ))
    return LocalizedQuery(
        {ai: frozenset(values)},
        draw(st.sampled_from([0.3, 0.45, 0.6])),
        draw(st.sampled_from([0.5, 0.75, 0.9])),
    )


@st.composite
def plan_scenarios(draw):
    table = draw(tables())
    return table, query_for(draw, table)


@settings(max_examples=20, deadline=None)
@given(plan_scenarios())
def test_cache_served_rules_identical_across_all_six_plans(scenario):
    table, query = scenario
    if not table.tids_matching(query.range_selections):
        return  # empty focal subsets are rejected; nothing to serve
    engine = Colarm(table, primary_support=0.05)
    engine.enable_cache()
    for kind in PlanKind:
        fresh = execute_plan(kind, engine.index, query)
        first = engine.query(query, plan=kind)
        repeat = engine.query(query, plan=kind)
        assert repeat.cached, kind
        assert first.rules == fresh.rules, kind
        assert repeat.rules == fresh.rules, kind


@st.composite
def interleavings(draw):
    table = draw(tables())
    pool = [query_for(draw, table) for _ in range(draw(
        st.integers(min_value=1, max_value=3)
    ))]
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("query"),
                      st.integers(min_value=0, max_value=len(pool) - 1)),
            st.tuples(st.just("mutate"), st.just(0)),
            st.tuples(st.just("invalidate"), st.just(0)),
        ),
        min_size=4, max_size=12,
    ))
    return table, pool, ops


@settings(max_examples=20, deadline=None)
@given(interleavings())
def test_mutation_and_invalidation_interleavings_never_serve_stale(scenario):
    table, pool, ops = scenario
    pool = [q for q in pool if table.tids_matching(q.range_selections)]
    if not pool:
        return
    engine = Colarm(table, primary_support=0.05)
    engine.enable_cache()
    cache = engine.cache
    for op, arg in ops:
        if op == "mutate":
            # Bumping the generation token models any index maintenance.
            engine.index.bump_generation()
        elif op == "invalidate":
            cache.invalidate()
            assert len(cache) == 0 and cache.stats.current_bytes == 0
        else:
            query = pool[arg % len(pool)]
            before = cache.stats.stale_drops
            outcome = engine.query(query, plan=PlanKind.SSVS)
            fresh = execute_plan(PlanKind.SSVS, engine.index, query)
            assert outcome.rules == fresh.rules
            if outcome.cached:
                # A serve is only legal from a current-generation entry.
                assert cache.stats.stale_drops == before
    # Closing invariant: staleness is dropped lazily — after probing
    # every pool query, only current-generation entries remain.
    for query in pool:
        cache.probe(query)
    generation = cache.generation()
    assert all(
        e.generation == generation for e in cache._entries.values()
    )


@st.composite
def eviction_scenarios(draw):
    table = draw(tables())
    pool = []
    seen = set()
    for _ in range(6):
        q = query_for(draw, table)
        if q not in seen:
            seen.add(q)
            pool.append(q)
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["put", "get"]),
            st.integers(min_value=0, max_value=len(pool) - 1),
        ),
        min_size=6, max_size=20,
    ))
    budget_entries = draw(st.integers(min_value=1, max_value=3))
    return table, pool, ops, budget_entries


@settings(max_examples=20, deadline=None)
@given(eviction_scenarios())
def test_tight_budget_eviction_keeps_byte_accounting_exact(scenario):
    table, pool, ops, budget_entries = scenario
    pool = [q for q in pool if table.tids_matching(q.range_selections)]
    if not pool:
        return
    index = build_mip_index(table, primary_support=0.05)
    rules = {q: execute_plan(PlanKind.SSVS, index, q).rules for q in pool}
    sizing = RuleCache(MaintainedIndex(index), budget_bytes=1 << 30)
    sizing.put_rules(pool[0], rules[pool[0]], 1)
    per_entry = max(sizing.stats.current_bytes, 1)
    cache = RuleCache(
        MaintainedIndex(index), budget_bytes=budget_entries * per_entry
    )
    accepted = 0
    for op, arg in ops:
        query = pool[arg % len(pool)]
        if op == "put":
            accepted += cache.put_rules(query, rules[query], 1)
        else:
            served = cache.get_rules(query)
            if served is not None:
                assert served == rules[query]
        assert cache.stats.current_bytes <= cache.budget_bytes
        assert cache.stats.current_bytes == sum(
            e.nbytes for e in cache._entries.values()
        )
    # Rejected (over-budget) puts return False and never count.
    assert cache.stats.insertions == accepted
    assert cache.stats.rejected == \
        sum(1 for op, _ in ops if op == "put") - accepted
    assert len(cache) <= max(accepted, 1)
