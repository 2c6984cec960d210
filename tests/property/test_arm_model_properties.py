"""Property tests for the density-aware ARM cardinality model.

The contract the cost model leans on: as ``min_count`` rises, every
*measured* component of :class:`ArmModelStats` — the frequent-item count,
the sampled frequent pairs and triples, and the greedy chain length — is
monotone non-increasing, because each is a threshold count over fixed
measured supports (and the strongest-first sample at a higher floor is a
prefix of the sample at a lower one).  The derived mining-mass estimate is
checked against its hard structural lower bounds at every floor.

Tables stay small (<= 5 attributes, cardinality <= 3, so <= 15 items):
every item fits inside both sample caps and the sampled measurements are
exact, which is what makes the monotonicity provable rather than merely
typical.

And the contract of the model's own rewrite: measured on the request's
focal projection (``costs._arm_floor``, ``_arm_chain`` and
``_arm_finish`` — integer ids, ``|D^Q|``-bit tidsets, adjacency
bitmasks, inlined bisections) every field of :class:`ArmModelStats` is
``==`` — floats included — the pre-projection model's
(``tests/core/reference_arm_model.py``): on random tables and queries
with ``item_attributes`` restrictions and full-domain selections, on two
wide schemas past the sample caps, and over main+delta against the
reference run on a table rebuilt from the live rows.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro import tidset as ts
from repro.core.focal import resolve_focal
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.optimizer import ColarmOptimizer
from repro.core.query import LocalizedQuery
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable
from repro.itemsets.itemset import min_count_for
from tests.core.reference_arm_model import (
    projected_arm_model,
    reference_arm_model,
)
from tests.core.test_arm_model import _model_arm_counts
from tests.property import test_maintenance_delta as delta_suite
from tests.property import test_plan_equivalence as plan_suite


@st.composite
def tables_and_focal(draw):
    n_attrs = draw(st.integers(min_value=2, max_value=5))
    cards = tuple(
        draw(st.integers(min_value=2, max_value=3)) for _ in range(n_attrs)
    )
    n_records = draw(st.integers(min_value=15, max_value=70))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    data = np.column_stack(
        [rng.integers(0, c, size=n_records) for c in cards]
    ).astype(np.int32)
    # optionally plant a correlated block so dense cores appear often
    if draw(st.booleans()):
        block = rng.random(n_records) < 0.5
        data[block] = data[block][:1]
    attrs = tuple(
        Attribute(f"a{i}", tuple(f"v{v}" for v in range(c)))
        for i, c in enumerate(cards)
    )
    table = RelationalTable(Schema(attrs), data)
    ai = draw(st.integers(min_value=0, max_value=n_attrs - 1))
    values = frozenset(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=cards[ai] - 1),
                min_size=1,
                max_size=cards[ai],
            )
        )
    )
    return table, {ai: values}


def model_inputs(table, selections):
    dq = table.tids_matching(selections)
    return table, dq, ts.count(dq)


@given(tables_and_focal())
@settings(max_examples=60, deadline=None)
def test_measured_components_monotone_in_min_count(table_and_focal):
    """f1, f2_sampled, f3_sampled, chain_length all shrink as the floor
    rises — the measured backbone of the estimate is provably monotone."""
    table, selections = table_and_focal
    table, dq, dq_size = model_inputs(table, selections)
    if dq_size == 0:
        return
    query = LocalizedQuery(selections, 0.3, 0.5)
    ladder = [
        _model_arm_counts(query, table, dq, dq_size, mc)
        for mc in range(1, dq_size + 2)
    ]
    for lo, hi in zip(ladder, ladder[1:]):
        assert hi.f1 <= lo.f1
        assert hi.f2_sampled <= lo.f2_sampled
        assert hi.f3_sampled <= lo.f3_sampled
        assert hi.chain_length <= lo.chain_length


@given(tables_and_focal())
@settings(max_examples=60, deadline=None)
def test_estimate_dominates_structural_lower_bounds(table_and_focal):
    """At every floor the mining-mass estimate covers what was *measured*:
    all frequent items, pairs and triples, and the 2**L / 3**L mass the
    greedy chain certifies."""
    table, selections = table_and_focal
    table, dq, dq_size = model_inputs(table, selections)
    if dq_size == 0:
        return
    query = LocalizedQuery(selections, 0.3, 0.5)
    for mc in range(1, dq_size + 2):
        s = _model_arm_counts(query, table, dq, dq_size, mc)
        measured = s.f1 + s.f2_sampled + s.f3_sampled
        assert s.est_itemsets >= measured
        # a frequent chain of length L certifies 2**L - 1 non-empty
        # frequent subsets and 3**L - 1 rule candidates
        assert s.est_itemsets >= 2.0 ** min(s.chain_length, 16) - 1.0 - 1e-9
        assert s.est_fanout >= 3.0 ** min(s.chain_length, 13) - 1.0 - 1e-9
        if s.f1 == 0:
            assert s.est_itemsets == 0.0 and s.est_fanout == 0.0
        # fit stays inside its clamp: never more items than F1, never
        # denser than a clique
        assert s.fit_size <= s.f1 + 1e-9
        assert 0.0 <= s.fit_density <= 1.0


# -- the projection-space model equals the model it replaced -----------------


def assert_models_agree(table, query, min_count):
    dq = table.tids_matching(query.range_selections)
    new = projected_arm_model(table, query, min_count, dq)
    old = reference_arm_model(
        query, table.item_tidsets(), dq, ts.count(dq), min_count
    )
    assert dataclasses.astuple(new) == dataclasses.astuple(old)
    return new


@settings(max_examples=60, deadline=None)
@given(plan_suite.scenarios(), st.data())
def test_projected_model_equals_reference(scenario, data):
    """Any table, any query (``item_attributes`` restrictions and
    full-domain selections included), any floor."""
    table, query = scenario
    dq_size = ts.count(table.tids_matching(query.range_selections))
    if dq_size == 0:
        return
    floors = {1, min_count_for(query.minsupp, dq_size), dq_size, dq_size + 1,
              data.draw(st.integers(1, dq_size))}
    for min_count in sorted(floors):
        assert_models_agree(table, query, min_count)
    everything = LocalizedQuery({}, query.minsupp, query.minconf,
                                item_attributes=query.item_attributes)
    assert_models_agree(table, everything, max(1, table.n_records // 3))


def wide_table(n_attrs: int, seed: int) -> RelationalTable:
    """Binary attributes over one latent cluster structure: most items
    frequent at a low floor, pairs and triangles neither all nor none."""
    rng = np.random.default_rng(seed)
    n = 400
    cluster = rng.integers(0, 3, size=n)
    signature = rng.integers(0, 2, size=(3, n_attrs))
    noise = rng.random((n, n_attrs)) < 0.3
    data = np.where(noise, rng.integers(0, 2, size=(n, n_attrs)),
                    signature[cluster]).astype(np.int32)
    attrs = tuple(Attribute(f"a{i}", ("x", "y")) for i in range(n_attrs))
    return RelationalTable(Schema(attrs), data)


@pytest.mark.parametrize(
    "n_attrs, f1_range",
    [(40, (49, 80)), (20, (33, 40))],
    ids=["past-the-pair-cap", "past-the-triangle-cap"],
)
def test_projected_model_equals_reference_past_the_caps(n_attrs, f1_range):
    """The e2e pools never exceed F1 = 28: F1 > 48 samples the pairs and
    extrapolates the tail, 32 < F1 <= 48 caps the triangle items."""
    table = wide_table(n_attrs, seed=n_attrs)
    query = LocalizedQuery({0: frozenset({0, 1})}, 0.1, 0.5)
    seen = []
    for min_count in (40, 60, 90, 120):
        stats = assert_models_agree(table, query, min_count)
        seen.append(stats.f1)
        restricted = LocalizedQuery(
            query.range_selections, 0.1, 0.5,
            item_attributes=frozenset(range(1, n_attrs)),
        )
        assert_models_agree(table, restricted, min_count)
    lo, hi = f1_range
    assert any(lo <= f1 <= hi for f1 in seen), seen


@settings(max_examples=25, deadline=None)
@given(delta_suite.scenarios())
def test_profile_over_main_and_delta_equals_reference_on_live_rows(scenario):
    """Over a live delta the model measures the combined universe
    ``min_count`` is computed for: what the reference reads off a table
    rebuilt from the live rows."""
    seed, n_base, ops, selections, minsupp, minconf = scenario
    rng = np.random.default_rng(seed)
    rows = [[int(rng.integers(0, c)) for c in delta_suite.CARDS]
            for _ in range(n_base)]
    alive = [True] * n_base
    mx = MaintainedIndex(build_mip_index(
        delta_suite._live_table(rows, alive),
        primary_support=delta_suite.PRIMARY,
    ))
    delta_suite._apply_ops(mx, rows, alive, ops)
    query = LocalizedQuery(selections, minsupp, minconf)
    focus = resolve_focal(mx.index, query, mx)
    if focus.dq_size == 0:
        return
    optimizer = ColarmOptimizer(mx)
    profile, _focus = optimizer.profile_for(query)
    live = delta_suite._live_table(rows, alive)
    dq = live.tids_matching(selections)
    assert ts.count(dq) == focus.dq_size
    expected = reference_arm_model(
        query, live.item_tidsets(), dq, focus.dq_size, focus.min_count
    )
    assert dataclasses.astuple(profile.arm_stats) == \
        dataclasses.astuple(expected)
