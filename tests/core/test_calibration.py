"""Cost-model calibration: probe generation and NNLS fitting."""

import pytest

from repro.core.calibration import calibrate, default_probe_queries
from repro.core.costs import DEFAULT_WEIGHTS
from repro.core.mipindex import build_mip_index
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def index():
    table = make_random_table(seed=31, n_records=100,
                              cardinalities=(4, 3, 3, 2, 3))
    return build_mip_index(table, primary_support=0.05)


def test_default_probe_queries(index):
    probes = default_probe_queries(index, n_queries=5, seed=3)
    assert len(probes) == 5
    for query in probes:
        assert index.table.tids_matching(query.range_selections) != 0
        assert 0 < query.minsupp <= 1


def test_probe_queries_deterministic(index):
    a = default_probe_queries(index, n_queries=4, seed=9)
    b = default_probe_queries(index, n_queries=4, seed=9)
    assert a == b


def test_calibrate_produces_usable_weights(index):
    report = calibrate(index, default_probe_queries(index, 4, seed=1))
    # Three legs per probe: S-E-V up to ELIMINATE, SS-VS and ARM.
    assert report.n_runs == 4 * 3
    assert report.residual >= 0.0
    weights = report.weights.weights
    assert set(weights) == set(DEFAULT_WEIGHTS)
    assert all(w >= 0 for w in weights.values())
    assert any(w > 0 for w in weights.values())


def test_calibration_runs_each_code_path_once_per_probe(index, monkeypatch):
    """Per probe: one rule extraction (SS-VS's; S-E-V's leg stops at
    ELIMINATE), two qualifications — all overlapping candidates, then the
    supported ones — two searches, one ARM mining, and no collection."""
    import gc

    from repro.core import operators
    from repro.core.operators import make_context, op_search, op_supported_search

    probes = default_probe_queries(index, 4, seed=1)
    expected = []
    for query in probes:
        ctx = make_context(index, query)
        expected += [tuple(op_search(ctx).rows),
                     tuple(op_supported_search(ctx).rows)]
    # The fixture must tell the two qualifications apart.
    assert expected[0::2] != expected[1::2]

    calls = {"extract": 0, "search": 0, "mine": 0, "collect": 0}
    qualified = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recording_qualify(ctx, candidates):
        qualified.append(tuple(candidates.rows))
        return real_qualify(ctx, candidates)

    real_qualify = operators._qualify_candidates
    monkeypatch.setattr(operators, "_qualify_candidates", recording_qualify)
    monkeypatch.setattr(operators, "_rules_from_qualified", counting(
        "extract", operators._rules_from_qualified))
    monkeypatch.setattr(operators, "_search",
                        counting("search", operators._search))
    monkeypatch.setattr(operators, "closed_masks",
                        counting("mine", operators.closed_masks))
    monkeypatch.setattr(gc, "collect", counting("collect", lambda *a: 0))
    calibrate(index, probes)
    n = len(probes)
    assert calls == {"extract": n, "search": 2 * n, "mine": n, "collect": 0}
    assert qualified == expected


def test_calibrated_weights_improve_fit(index):
    """Fitted weights should predict probe times at least as well as the
    defaults (they minimize exactly that residual) — for all six plans,
    although the fit timed only three of them."""
    import numpy as np

    from repro.core.costs import CostModel, QueryProfile
    from repro.core.focal import resolve_focal
    from repro.core.plans import PlanKind, execute_plan

    probes = default_probe_queries(index, 4, seed=7)
    report = calibrate(index, probes)

    default_model = CostModel(index.stats)
    fitted_model = CostModel(index.stats, report.weights)
    default_err, fitted_err = [], []
    for query in probes:
        profile = QueryProfile.from_query(
            query, resolve_focal(index, query), index.stats
        )
        for kind in PlanKind:
            result = execute_plan(kind, index, query)
            focus = result.trace.by_name("FOCUS")
            measured = result.elapsed - (focus.elapsed if focus else 0)
            default_err.append(default_model.estimate(kind, profile) - measured)
            fitted_err.append(fitted_model.estimate(kind, profile) - measured)
    # Timing noise allows some slack, but the fit should not be far worse.
    assert np.sqrt(np.mean(np.square(fitted_err))) <= \
        2.0 * np.sqrt(np.mean(np.square(default_err)))


def test_degenerate_probe_does_not_poison_weights(index):
    """A probe whose ARM run explodes must not inflate every weight.

    The robust median-of-ratios fit exists exactly for this: synthesize a
    probe set that includes a degenerate two-record focal subset (whose
    rule fan-out blows up ARM's time relative to its load) and check that
    the fitted eliminate/verify weights stay within sane bounds of a fit
    without it.
    """
    from repro.core.query import LocalizedQuery

    clean = default_probe_queries(index, 4, seed=13)
    # find a tiny non-empty subset to serve as the degenerate probe
    degenerate = None
    table = index.table
    from repro import tidset as ts

    for a in range(table.n_attributes):
        for v in range(table.schema.attributes[a].cardinality):
            for b in range(table.n_attributes):
                if b == a:
                    continue
                for w in range(table.schema.attributes[b].cardinality):
                    sel = {a: frozenset({v}), b: frozenset({w})}
                    size = ts.count(table.tids_matching(sel))
                    if 1 <= size <= 4:
                        degenerate = LocalizedQuery(sel, 0.3, 0.5)
                        break
                if degenerate:
                    break
            if degenerate:
                break
        if degenerate:
            break
    if degenerate is None:
        pytest.skip("no tiny focal subset in this dataset")

    base = calibrate(index, clean)
    poisoned = calibrate(index, clean + [degenerate])
    for feature in ("eliminate", "verify", "search"):
        b = base.weights.weights[feature]
        p = poisoned.weights.weights[feature]
        assert p <= b * 10, (feature, b, p)


@pytest.mark.parametrize("collector_on", [True, False])
def test_every_probe_leg_runs_with_the_collector_paused(
    index, monkeypatch, collector_on
):
    """Every leg — S-E-V's SEARCH -> ELIMINATE included — runs with the
    collector paused, and calibration leaves it as it was found."""
    import gc

    from repro.core import plans

    probes = default_probe_queries(index, 4, seed=1)
    paused = []
    real_make_context = plans.make_context

    def watching_make_context(*args, **kwargs):
        paused.append(not gc.isenabled())
        return real_make_context(*args, **kwargs)

    monkeypatch.setattr(plans, "make_context", watching_make_context)
    was_enabled = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        calibrate(index, probes)
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert len(paused) == 3 * len(probes) and all(paused)


@pytest.mark.parametrize("collector_on", [True, False])
def test_collector_state_restored_when_a_probe_raises(
    index, monkeypatch, collector_on
):
    import gc

    from repro.core import calibration

    calls = []

    def failing_execute(*args, **kwargs):
        calls.append(gc.isenabled())
        if len(calls) == 3:
            raise RuntimeError("probe failed")
        return real_execute(*args, **kwargs)

    real_execute = calibration.execute_plan
    monkeypatch.setattr(calibration, "execute_plan", failing_execute)
    was_enabled = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="probe failed"):
            calibrate(index, default_probe_queries(index, 2, seed=1))
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert calls == [False, False, False]
