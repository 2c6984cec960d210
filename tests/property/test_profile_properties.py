"""The layout-aware cardinality pass equals the pass it replaced.

``costs._cardinalities`` counts bits of the support-ordered MIP bitsets
and runs its numeric steps only over the MIPs still in play;
``tests/core/reference_cardinalities.py`` is the pass it replaced (every
step over all N MIPs, boolean arrays in MIP order).  The six counts it
fills must be ``==`` — not
close — on random tables and queries (``item_attributes`` restrictions
and full-domain selections included, drawn by the plan-equivalence
strategy), with no MIPs at all, and for profiles built over main+delta.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import costs
from repro.core.costs import QueryProfile
from repro.core.focal import resolve_focal
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.optimizer import ColarmOptimizer
from repro.core.query import LocalizedQuery
from tests.core.reference_cardinalities import (
    mip_order_stats,
    reference_cardinalities,
)
from tests.property import test_maintenance_delta as delta_suite
from tests.property import test_plan_equivalence as plan_suite


def assert_passes_agree(query, focus, stats, reference_stats):
    """``reference_stats`` is ``stats`` in the reference's MIP order; the
    pass reads the region's bitmaps off ``focus``, the reference
    classifies ``focus.focal`` itself."""
    new = costs._cardinalities(query, focus, stats, focus.min_count)
    old = reference_cardinalities(
        query, focus.focal, reference_stats, focus.min_count
    )
    assert list(new) == list(old) == list(costs._CARDINALITY_FIELDS)
    assert new == old


@settings(max_examples=60, deadline=None)
@given(plan_suite.scenarios(), st.sampled_from([0.05, 0.2, 1.0]))
def test_cardinalities_equal_reference(scenario, primary_support):
    """Any table, any query; primary support 1.0 stores no MIP."""
    table, query = scenario
    index = build_mip_index(table, primary_support=primary_support)
    focus = resolve_focal(index, query)
    by_mip = mip_order_stats(index)
    assert_passes_agree(query, focus, index.stats, by_mip)
    # A query with no range attribute at all bounds every MIP by |D|.
    everything = LocalizedQuery({}, query.minsupp, query.minconf,
                                item_attributes=query.item_attributes)
    assert_passes_agree(everything, resolve_focal(index, everything),
                        index.stats, by_mip)


@settings(max_examples=25, deadline=None)
@given(delta_suite.scenarios())
def test_profiles_over_main_and_delta_equal_reference(scenario):
    """Field for field: the profile the optimizer builds over a live
    delta equals the one built with the reference pass in its place."""
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
    assert profile.dq_size == focus.dq_size
    assert profile.min_count == focus.min_count
    # The delta block is priced at the words the masked kernel adds.
    assert profile.delta_words == (
        focus.kernel().words - mx.index.stats.tidset_words
    )
    real = costs._cardinalities
    by_mip = mip_order_stats(mx.index)

    def reference(query, focus, _stats, min_count):
        return reference_cardinalities(query, focus.focal, by_mip, min_count)

    costs._cardinalities = reference
    try:
        expected = QueryProfile.from_query(query, focus, mx.index.stats)
    finally:
        costs._cardinalities = real
    assert dataclasses.asdict(profile) == dataclasses.asdict(expected)
