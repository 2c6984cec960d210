"""Property tests for the extension modules: batching and maintenance."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.multiquery import execute_batch
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable

CARDS = (3, 3, 2, 3)


def rule_key(rules):
    return sorted(
        (r.antecedent, r.consequent, r.support_count, round(r.confidence, 12))
        for r in rules
    )


@st.composite
def tables_and_queries(draw):
    n_records = draw(st.integers(min_value=20, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    data = np.column_stack(
        [rng.integers(0, c, size=n_records) for c in CARDS]
    ).astype(np.int32)
    attrs = tuple(
        Attribute(f"a{i}", tuple(f"v{v}" for v in range(c)))
        for i, c in enumerate(CARDS)
    )
    table = RelationalTable(Schema(attrs), data)
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        ai = draw(st.integers(min_value=0, max_value=len(CARDS) - 1))
        values = draw(
            st.sets(
                st.integers(min_value=0, max_value=CARDS[ai] - 1),
                min_size=1, max_size=CARDS[ai],
            )
        )
        queries.append(
            LocalizedQuery(
                {ai: frozenset(values)},
                draw(st.sampled_from([0.3, 0.5])),
                draw(st.sampled_from([0.5, 0.8])),
            )
        )
    return table, queries


@st.composite
def mixed_batches(draw):
    """A table and a batch mixing focal subsets, thresholds in any order
    and item attributes, so groups of several queries form."""
    table, _ = draw(tables_and_queries())
    subsets = draw(st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=len(CARDS) - 1),
            st.integers(min_value=1, max_value=7),
            min_size=1, max_size=2,
        ),
        min_size=1, max_size=3,
    ))
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        chosen = draw(st.sampled_from(subsets))
        selections = {
            a: frozenset(v for v in range(CARDS[a]) if bits >> v & 1)
            or frozenset({0})
            for a, bits in chosen.items()
        }
        aitem = draw(st.one_of(
            st.none(),
            st.sets(
                st.integers(min_value=0, max_value=len(CARDS) - 1),
                min_size=2,
            ).map(frozenset),
        ))
        queries.append(LocalizedQuery(
            selections,
            draw(st.sampled_from([0.2, 0.25, 0.3, 0.4, 0.5])),
            draw(st.sampled_from([0.0, 0.5, 0.65, 0.8])),
            item_attributes=aitem,
        ))
    return table, queries, draw(st.booleans())


@settings(max_examples=25, deadline=None)
@given(mixed_batches())
def test_batch_always_matches_individual_runs(case):
    """Every answer of a mixed batch is the solo S-E-V answer, rule for
    rule in the same order, in closed and expanded mode."""
    table, queries, expand = case
    runnable = [
        q for q in queries if table.tids_matching(q.range_selections)
    ]
    if not runnable:
        return
    index = build_mip_index(table, primary_support=0.05)
    report = execute_batch(index, runnable, expand=expand)
    for item, query in zip(report.items, runnable):
        solo = execute_plan(PlanKind.SEV, index, query, expand=expand)
        assert item.rules == solo.rules
        assert item.dq_size == solo.dq_size


@settings(max_examples=12, deadline=None)
@given(
    tables_and_queries(),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=5),
)
def test_maintained_index_matches_full_rebuild(case, seed, n_new):
    table, queries = case
    runnable = [
        q
        for q in queries
        if table.tids_matching(q.range_selections)
        # Keep to queries whose coverage condition holds comfortably:
        # minsupp * |D^Q| >= primary*|main| + |delta|.
        and q.minsupp >= 0.5
    ]
    if not runnable:
        return
    mx = MaintainedIndex(table, primary_support=0.05)
    rng = np.random.default_rng(seed)
    new = [[int(rng.integers(0, c)) for c in CARDS] for _ in range(n_new)]
    mx.append(new)
    combined = RelationalTable(
        table.schema, np.vstack([table.data, np.asarray(new, dtype=np.int32)])
    )
    fresh = build_mip_index(combined, primary_support=0.05)
    from repro import tidset as ts

    for query in runnable:
        dq = combined.tids_matching(query.range_selections)
        if not dq:
            continue
        dq_size = ts.count(dq)
        got = mx.query(query)

        # Invariant 1: every maintained rule's statistics are exact over
        # the combined (main + delta) data and pass the thresholds.
        for rule in got:
            items_count = ts.count(combined.itemset_tidset(rule.items) & dq)
            ante_count = ts.count(
                combined.itemset_tidset(rule.antecedent) & dq
            )
            assert rule.support_count == items_count
            assert abs(rule.confidence - items_count / ante_count) < 1e-9
            assert items_count / dq_size >= query.minsupp - 1e-9
            assert rule.confidence >= query.minconf - 1e-9

        # Invariant 2 (closure-invariant containment): every maintained
        # rule corresponds to a full-rebuild rule with the same local
        # antecedent/itemset tidsets — a rebuild can only surface *more*
        # representations, never contradict the delta-corrected answer.
        def tidset_pair(rule):
            return (
                combined.itemset_tidset(rule.antecedent) & dq,
                combined.itemset_tidset(rule.items) & dq,
            )

        fresh_rules = execute_plan(PlanKind.SEV, fresh, query).rules
        fresh_pairs = {tidset_pair(r) for r in fresh_rules}
        for rule in got:
            assert tidset_pair(rule) in fresh_pairs
