"""Unit tests for sharded execution: pool lifecycle, engine opt-in,
and the parallel-aware optimizer.

The merge *algebra* is covered property-style in
``tests/property/test_parallel_properties.py``; this file covers the
plumbing around it — the executor serves exact counts through a real
pool, ``Colarm.configure`` installs and tears down the whole stack, the
sharded plans return byte-identical rules, and the optimizer prices
parallel variants sanely (in particular: an infinite per-dispatch cost
must make it never choose a sharded variant).
"""

import numpy as np
import pytest

from repro import kernels
from repro.core.costs import CostModel, CostWeights, ParallelCostProfile
from repro.core.engine import Colarm
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.parallel import (
    ParallelConfig,
    ParallelContext,
    ShardedExecutor,
    shard_words,
)

QUERY = LocalizedQuery({0: frozenset({0, 1})}, 0.3, 0.6)


def _rule_key(rules):
    return sorted(
        (r.antecedent, r.consequent, r.support_count) for r in rules
    )


def test_shard_words_degenerate_edges():
    assert shard_words(0, 3) == [(0, 0), (0, 0), (0, 0)]
    assert shard_words(5, 1) == [(0, 5)]
    assert shard_words(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]


def test_executor_rejects_bad_shard_count():
    with pytest.raises(ValueError, match="n_shards"):
        ShardedExecutor({}, ParallelConfig(n_shards=0))


def test_executor_exact_counts_through_real_pool():
    rng = np.random.default_rng(3)
    n_records = 1000  # not a multiple of 64: the last word has padding
    words = kernels.n_words(n_records)
    matrix = np.zeros((40, words), dtype=kernels._WORD_DTYPE)
    packed = np.packbits(
        rng.random((40, n_records)) < 0.3, axis=1, bitorder="little"
    )
    matrix.view(np.uint8)[:, : packed.shape[1]] = packed
    mask = matrix[-1]
    executor = ShardedExecutor({"m": matrix}, ParallelConfig(n_shards=3))
    try:
        rows = np.asarray([0, 5, 5, 17, 39], dtype=np.int64)
        got = executor.and_count("m", rows, mask, words)
        want = kernels.and_count(matrix[rows], mask).astype(np.int64)
        assert np.array_equal(got, want)
        got = executor.popcount_rows("m", rows, words)
        want = kernels.popcount_rows(matrix[rows]).astype(np.int64)
        assert np.array_equal(got, want)
    finally:
        executor.close()
    assert not executor.available


def test_context_lifecycle_and_describe(salary_index):
    ctx = ParallelContext(salary_index, ParallelConfig(n_shards=2))
    try:
        desc = ctx.describe()
        assert desc["n_shards"] == 2
        assert desc["dispatch_s"] > 0
        profile = ctx.cost_profile()
        assert isinstance(profile, ParallelCostProfile)
        assert profile.n_shards == 2
        assert 1 <= profile.effective_workers <= 2
    finally:
        ctx.close()
    assert not ctx.available


def test_engine_configure_and_sharded_rules_identical(salary):
    engine = Colarm(salary, primary_support=0.15)
    serial = engine.query(QUERY)
    engine.configure(parallel=ParallelConfig(n_shards=2, force=True))
    assert engine.parallel is not None
    assert engine.optimizer.parallel_profile is not None
    # Calibration installed the measured parallel weights.
    assert engine.optimizer.weights.weights["par_dispatch"] > 0
    # Forced plans execute with the context attached; rules identical.
    for kind in PlanKind:
        forced = engine.query(QUERY, plan=kind)
        ref = execute_plan(kind, engine.index, QUERY)
        assert _rule_key(forced.rules) == _rule_key(ref.rules), kind
    sharded = engine.query(QUERY)
    assert _rule_key(sharded.rules) == _rule_key(serial.rules)
    # The optimizer choice now carries parallel estimates for MIP plans.
    choice = engine.choose_plan(QUERY)
    assert choice.parallel_estimates
    assert PlanKind.ARM not in choice.parallel_estimates
    assert "+P" in choice.explain()
    engine.close()
    assert engine.parallel is None
    assert engine.optimizer.parallel_profile is None
    # Serial again after teardown.
    after = engine.query(QUERY)
    assert _rule_key(after.rules) == _rule_key(serial.rules)


def test_configure_is_idempotent_and_reconfigurable(salary):
    engine = Colarm(salary, primary_support=0.15)
    engine.configure(parallel=True)
    first = engine.parallel
    assert first is not None
    engine.configure(parallel=ParallelConfig(n_shards=2))
    assert engine.parallel is not first
    assert not first.available  # previous pool really torn down
    engine.close()


def test_optimizer_never_parallel_with_infinite_dispatch(salary_engine):
    """Pricing sanity: if a shard dispatch costs infinity, no parallel
    variant can ever win — the CI self-test gate relies on this."""
    optimizer = salary_engine.optimizer
    original = optimizer.weights
    weights = dict(original.weights)
    weights["par_dispatch"] = float("inf")
    optimizer.set_weights(CostWeights(weights))
    optimizer.set_parallel(ParallelCostProfile(n_shards=4,
                                               effective_workers=4))
    try:
        choice = optimizer.choose(QUERY)
        assert not choice.parallel
        assert all(
            np.isinf(cost) for cost in choice.parallel_estimates.values()
        )
    finally:
        optimizer.set_parallel(None)
        optimizer.set_weights(original)


def test_parallel_loads_scale_with_workers(salary_engine):
    """More effective workers => cheaper record-partitioned terms, same
    dispatch term; ARM has no parallel variant."""
    optimizer = salary_engine.optimizer
    profile, _focus = optimizer.profile_for(QUERY)
    model = CostModel(salary_engine.index.stats, optimizer.weights)
    p2 = ParallelCostProfile(n_shards=4, effective_workers=2)
    p4 = ParallelCostProfile(n_shards=4, effective_workers=4)
    assert model.parallel_loads(PlanKind.ARM, profile, p4) is None
    l2 = model.parallel_loads(PlanKind.SSVS, profile, p2)
    l4 = model.parallel_loads(PlanKind.SSVS, profile, p4)
    assert l4["eliminate"] <= l2["eliminate"]
    assert l4["verify"] <= l2["verify"]
    assert l4["par_dispatch"] == l2["par_dispatch"] == pytest.approx(8.0)
    est = model.estimate_parallel(PlanKind.SSVS, profile, p4)
    assert est > 0


def test_single_worker_profile_prices_parallel_above_serial(salary_engine):
    """With one effective worker the record-partitioned terms do not
    shrink, so parallel = serial + dispatch/merge overhead > serial."""
    optimizer = salary_engine.optimizer
    profile, _focus = optimizer.profile_for(QUERY)
    model = CostModel(salary_engine.index.stats, optimizer.weights)
    p1 = ParallelCostProfile(n_shards=4, effective_workers=1)
    for kind in PlanKind:
        if kind is PlanKind.ARM:
            continue
        serial = model.estimate(kind, profile)
        parallel = model.estimate_parallel(kind, profile, p1)
        assert parallel > serial, kind
