"""ARM is priced in full only when it can win, and the picks do not move.

``ColarmOptimizer.choose`` prices a request's profile at ARM's *F1
floor* (``QueryProfile.floor_from_query``: F1 alone, a lower bound on
the model's itemset and fan-out estimates), raises it by the greedy chain
(``with_arm_chain``) only when the F1 price does not already lose to the
cheapest MIP plan, and finishes the ARM model only when the chain's price
does not lose either.  Checked here on random tables and queries, over
the main index and over main + a live delta, at the default weights,
random non-negative weights, ``arm = 0`` and ``verify = inf``, at risk
factors 1.0 and 1.15:

* the prices run F1 floor <= chain floor <= full model; F1 is the full
  model's at every stage, and so is the chain length wherever the chain
  was walked;
* the full model behind the oracle is the pre-split reference model's,
  field for field (so the oracle owes nothing to the floor);
* ``choose()`` picks what pricing every plan in full picks, with the same
  MIP prices bit for bit, a floor only where it lost, and the full ARM
  price wherever ARM could win — also on profile-memo hits after
  ``set_weights``, where a memoized floor may have stopped settling.
"""

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import costs
from repro.core.costs import (
    DEFAULT_WEIGHTS,
    CostModel,
    CostWeights,
    QueryProfile,
)
from repro.core.focal import resolve_focal
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.optimizer import _TIE_PREFERENCE, ColarmOptimizer
from repro.core.plans import PlanKind
from repro.core.query import LocalizedQuery
from tests.conftest import make_random_table
from tests.core.reference_arm_model import reference_arm_model
from tests.property import test_maintenance_delta as delta_suite
from tests.property import test_plan_equivalence as plan_suite

ARM = PlanKind.ARM


def _with(variant: str, weights: dict) -> CostWeights:
    if variant == "arm 0":
        weights = {**weights, "arm": 0.0}
    elif variant == "verify inf":
        weights = {**weights, "verify": math.inf}
    return CostWeights(weights)


#: Default weights or log-uniform random ones (some features 0), then as
#: drawn, with ``arm = 0`` (the floor is then exact) or with an infinite
#: ``verify`` (every MIP plan infinite: each carries a positive verify load).
WEIGHTS = st.builds(
    _with,
    st.sampled_from(["as drawn", "arm 0", "verify inf"]),
    st.one_of(
        st.just(dict(DEFAULT_WEIGHTS)),
        st.fixed_dictionaries({
            name: st.one_of(
                st.just(0.0),
                st.floats(-10.0, -4.0).map(lambda e: 10.0 ** e),
            )
            for name in DEFAULT_WEIGHTS
        }),
    ),
)
RISK = st.sampled_from([1.0, 1.15])


def full_pricing(index, delta, query, weights, risk, reference_tables):
    """Every plan priced on the full profile, and the pick they make.

    ``reference_tables`` is ``(item tidsets, focal tidset)`` of the live
    rows, for the reference ARM model the full profile must reproduce.
    """
    focus = resolve_focal(index, query, delta)
    profile = QueryProfile.from_query(query, focus, index.stats)
    item_tidsets, dq = reference_tables
    expected = reference_arm_model(
        query, item_tidsets, dq, focus.dq_size, focus.min_count
    )
    assert dataclasses.astuple(profile.arm_stats) == \
        dataclasses.astuple(expected)
    model = CostModel(index.stats, weights)
    estimates = model.estimate_all(profile)
    _, _, kind = min(
        (cost * (risk if k is ARM else 1.0), _TIE_PREFERENCE[k], k)
        for k, cost in estimates.items()
    )
    floor = QueryProfile.floor_from_query(query, focus, index.stats)
    stages = (floor, floor.with_arm_chain(focus), profile)
    return profile, stages, estimates, kind, model


def assert_floor_bounds(stages, model):
    """F1 floor <= chain floor <= full model, stage by stage."""
    floor, chain, profile = stages
    full_arm = profile.arm_stats
    for lower, upper in zip(stages, stages[1:]):
        assert lower.arm_stats.f1 == full_arm.f1
        assert model.estimate(ARM, lower) <= model.estimate(ARM, upper)
        assert lower.arm_itemsets <= upper.arm_itemsets
        assert lower.arm_fanout <= upper.arm_fanout
    assert chain.arm_stats.chain_length == full_arm.chain_length
    if floor.arm_floor:
        assert full_arm.f1 >= 2
        assert floor.arm_stats.chain_length == 0
        assert chain.arm_floor and chain.arm_stats.chain_length >= 1
        # F1 alone: today's floor formula at chain length 0.
        assert (floor.arm_itemsets, floor.arm_fanout) == \
            (full_arm.f1, 2.0 * full_arm.f1)
    else:  # F1 <= 1: the floor is the model
        assert floor == chain == profile


def assert_same_pick(choice, profile, estimates, kind):
    assert choice.kind is kind
    assert list(choice.estimates) == list(PlanKind)
    for k in PlanKind:
        if k is ARM and choice.profile.arm_floor:
            assert choice.bound(k) == "≥ "
            assert choice.estimates[k] <= estimates[k]
        else:
            assert choice.bound(k) == ""
            assert choice.estimates[k] == estimates[k]
    arm = choice.profile.arm_stats
    assert arm.f1 == profile.arm_stats.f1
    if arm.chain_length:  # walked: the full model's
        assert arm.chain_length == profile.arm_stats.chain_length
    if choice.profile.arm_floor:
        assert choice.kind is not ARM
        assert dataclasses.replace(
            choice.profile, arm_itemsets=profile.arm_itemsets,
            arm_fanout=profile.arm_fanout, arm_stats=profile.arm_stats,
        ) == profile
    else:
        assert choice.profile == profile


def check(optimizer, index, delta, query, weight_sets, risk, tables):
    """``choose`` at each weight set in turn (the later ones through the
    profile memo) against full pricing at that set."""
    for weights in weight_sets:
        optimizer.set_weights(weights)
        profile, stages, estimates, kind, model = full_pricing(
            index, delta, query, weights, risk, tables
        )
        assert_floor_bounds(stages, model)
        choice = optimizer.choose(query)
        assert_same_pick(choice, profile, estimates, kind)
        choice.release()


@settings(max_examples=80, deadline=None)
@given(plan_suite.scenarios(), WEIGHTS, WEIGHTS, RISK)
def test_lazy_choice_equals_full_pricing_on_main(scenario, w1, w2, risk):
    table, query = scenario
    index = build_mip_index(table, primary_support=0.05)
    focus = resolve_focal(index, query)
    if focus.dq_size == 0:
        return
    optimizer = ColarmOptimizer(
        MaintainedIndex(index), w1, arm_risk_factor=risk
    )
    tables = (table.item_tidsets(), focus.dq)
    check(optimizer, index, None, query, (w1, w2, w1), risk, tables)


@settings(max_examples=40, deadline=None)
@given(delta_suite.scenarios(), WEIGHTS, WEIGHTS, RISK)
def test_lazy_choice_equals_full_pricing_over_a_live_delta(
    scenario, w1, w2, risk
):
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
    if resolve_focal(mx.index, query, mx).dq_size == 0:
        return
    live = delta_suite._live_table(rows, alive)
    tables = (live.item_tidsets(), live.tids_matching(selections))
    optimizer = ColarmOptimizer(mx, w1, arm_risk_factor=risk)
    check(optimizer, mx.index, mx, query, (w1, w2, w1), risk, tables)


@pytest.fixture(scope="module")
def dense():
    """A table with long local chains, so ARM's floor is a real bound."""
    table = make_random_table(seed=3, n_records=160,
                              cardinalities=(2, 2, 2, 2, 2, 2))
    return table, build_mip_index(table, primary_support=0.05)


def test_a_memoized_floor_is_finished_once_it_stops_settling(dense):
    """A floor settles the pick at the weights it was priced at; after
    ``set_weights`` makes the MIP plans dear, the memo hit re-resolves and
    finishes the model — ARM is picked on its full price, never its
    floor — and the finished profile replaces the floor in the memo."""
    table, index = dense
    query = LocalizedQuery({0: frozenset({0})}, 0.3, 0.6)
    optimizer = ColarmOptimizer(MaintainedIndex(index))
    first = optimizer.choose(query)
    first.release()
    assert first.profile.arm_floor and first.kind is not ARM
    assert first.explain().count("≥") == 1

    dear = {**DEFAULT_WEIGHTS, "verify": 1.0, "rulegen": 1.0}
    optimizer.set_weights(CostWeights(dear))
    again = optimizer.choose(query)
    again.release()
    profile, _stages, estimates, kind, _model = full_pricing(
        index, None, query, CostWeights(dear), optimizer.arm_risk_factor,
        (table.item_tidsets(), table.tids_matching(query.range_selections)),
    )
    assert kind is ARM
    assert again.focus is not None  # resolved again, not recalled
    assert_same_pick(again, profile, estimates, kind)
    recalled = optimizer.choose(query)
    assert recalled.focus is None and recalled.profile is again.profile


def test_negative_weights_price_in_full(dense):
    """With a negative weight nothing bounds ARM's full price from its
    floor, so the model runs whatever the floor says."""
    _table, index = dense
    query = LocalizedQuery({0: frozenset({0})}, 0.3, 0.6)
    optimizer = ColarmOptimizer(
        MaintainedIndex(index),
        CostWeights({**DEFAULT_WEIGHTS, "search": -1e-12}),
    )
    choice = optimizer.choose(query)
    choice.release()
    assert not choice.profile.arm_floor
    assert choice.profile.arm_stats.sample_size > 0


def test_a_measurement_logs_the_full_arm_price(dense):
    """``record_measurement`` never fits a floor: an ARM residual carries
    the full model's price, F1 and chain — also for a choice the memo
    served."""
    _table, index = dense
    query = LocalizedQuery({0: frozenset({0})}, 0.3, 0.6)
    optimizer = ColarmOptimizer(MaintainedIndex(index))
    choice = optimizer.choose(query)
    choice.release()
    assert choice.profile.arm_floor
    residual = optimizer.record_measurement(choice, ARM, 1e-3)
    full, _focus = ColarmOptimizer(MaintainedIndex(index)).profile_for(query)
    assert residual.estimated_s == optimizer.cost_model.estimate(ARM, full)
    assert residual.estimated_s > choice.estimates[ARM]
    assert (residual.arm_f1, residual.arm_chain) == \
        (full.arm_stats.f1, full.arm_stats.chain_length)
    mip = optimizer.record_measurement(choice, PlanKind.SSVS, 1e-3)
    assert mip.estimated_s == choice.estimates[PlanKind.SSVS]
    # A floor the memo served (another minconf) holds no subset at all.
    recalled = optimizer.choose(
        LocalizedQuery(query.range_selections, query.minsupp, 0.9)
    )
    assert recalled.focus is None and recalled.profile is choice.profile
    assert optimizer.record_measurement(recalled, ARM, 1e-3).estimated_s \
        == residual.estimated_s


# -- how far each miss prices ARM ---------------------------------------------


def count_stages(monkeypatch):
    """Count the chain walks, the model finishes and the masked kernel's
    row read-outs from here on."""
    calls = collections.Counter()

    def counted(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(costs, "_arm_chain")
    counted(costs, "_arm_finish")
    counted(kernels.FocalKernel, "item_tidsets")
    return calls


def stage_prices(index, query):
    """ARM's price at the F1 floor, the chain floor and the full model,
    and the cheapest MIP plan's, at the default weights."""
    focus = resolve_focal(index, query)
    floor = QueryProfile.floor_from_query(query, focus, index.stats)
    chain = floor.with_arm_chain(focus)
    model = CostModel(index.stats)
    mip = min(cost for kind, cost in model.estimate_all(floor).items()
              if kind is not ARM)
    prices = [model.estimate(ARM, p)
              for p in (floor, chain, chain.with_arm_model(focus))]
    assert prices[0] < prices[1] < prices[2]
    return prices, mip


def test_a_miss_f1_settles_reads_no_item_row(dense, monkeypatch):
    """F1 comes off the kernel's supports: when its price already loses,
    no row is read out, no chain walked and no model finished."""
    _table, index = dense
    query = LocalizedQuery({0: frozenset({0})}, 0.1, 0.6)
    (f1, _chain, _full), mip = stage_prices(index, query)
    optimizer = ColarmOptimizer(MaintainedIndex(index))
    assert mip <= f1 * optimizer.arm_risk_factor
    calls = count_stages(monkeypatch)
    choice = optimizer.choose(query)
    choice.release()
    assert choice.kind is not ARM and choice.estimates[ARM] == f1
    assert choice.profile.arm_floor
    assert choice.profile.arm_stats.chain_length == 0
    assert calls == {}


def test_a_miss_only_the_chain_settles_never_finishes(dense, monkeypatch):
    """A risk factor that puts the cheapest MIP plan between ARM's F1 and
    chain prices: the chain is walked once, and the model never runs."""
    _table, index = dense
    query = LocalizedQuery({0: frozenset({0})}, 0.1, 0.6)
    (f1, chain, _full), mip = stage_prices(index, query)
    optimizer = ColarmOptimizer(
        MaintainedIndex(index), arm_risk_factor=2.0 * mip / (f1 + chain)
    )
    calls = count_stages(monkeypatch)
    choice = optimizer.choose(query)
    choice.release()
    assert choice.kind is not ARM and choice.estimates[ARM] == chain
    assert choice.profile.arm_floor
    assert calls == {"_arm_chain": 1, "item_tidsets": 1}


def test_a_miss_the_model_settles_walks_the_chain_once(dense, monkeypatch):
    """Every MIP plan infinite: neither floor settles, so the chain is
    walked once and the model finished once on the one read-out."""
    _table, index = dense
    query = LocalizedQuery({0: frozenset({0})}, 0.1, 0.6)
    (_f1, _chain, full), _mip = stage_prices(index, query)
    optimizer = ColarmOptimizer(
        MaintainedIndex(index),
        CostWeights({**DEFAULT_WEIGHTS, "verify": math.inf}),
    )
    calls = count_stages(monkeypatch)
    choice = optimizer.choose(query)
    choice.release()
    assert choice.kind is ARM and choice.estimates[ARM] == full
    assert not choice.profile.arm_floor
    assert calls == {"_arm_chain": 1, "_arm_finish": 1, "item_tidsets": 1}
