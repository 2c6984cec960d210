"""One resolution of the focal subset per request (``repro.core.focal``).

The optimizer resolves ``D^Q`` — and masks the item rows to it — for the
profile, ``PlanChoice`` carries it and ``make_context`` adopts it — while
it still describes the index — so a request makes one ``tids_matching``,
one delta view and one masked kernel, and a main projection only when
ARM runs; a resolution made before a mutation is re-made, never
executed on; and the item rows end with the request on every exit.
"""

import asyncio
import dataclasses
import math

import numpy as np
import pytest

from repro import Colarm, LocalizedQuery, PlanKind, kernels
from repro import tidset as ts
from repro.core.costs import (
    _LATTICE_SHARING,
    CostModel,
    CostWeights,
    QueryProfile,
)
from repro.errors import ServiceClosedError, ServiceOverloadError
from repro.core.focal import resolve_focal
from repro.core.maintenance import MaintainedIndex
from repro.core.operators import make_context
from repro.core.plans import execute_plan
from repro.dataset.table import RelationalTable
from repro.serving import QueryService, ServingConfig
from tests.conftest import make_random_table

CARDS = (4, 3, 3, 2)
QUERY = LocalizedQuery({0: frozenset({1, 2})}, 0.3, 0.6)


def make_table() -> RelationalTable:
    """200 rows whose later attributes mostly follow the earlier ones, so
    every plan has rules to generate (and a kernel to build)."""
    rng = np.random.default_rng(5)
    noise = make_random_table(seed=5, n_records=200, cardinalities=CARDS)
    data = noise.data.copy()
    follow = rng.random((200, 3)) < 0.8
    data[:, 1] = np.where(follow[:, 0], data[:, 0] % 3, data[:, 1])
    data[:, 2] = np.where(follow[:, 1], data[:, 1], data[:, 2])
    data[:, 3] = np.where(follow[:, 2], data[:, 0] % 2, data[:, 3])
    return RelationalTable(noise.schema, data)


def make_engine(mutate: bool, expand: bool = False) -> Colarm:
    """An engine over that table; ``mutate`` leaves a live delta and
    tombstones inside ``QUERY``'s region without folding them."""
    engine = Colarm(make_table(), primary_support=0.05, expand=expand)
    if mutate:
        # A near-unity fraction: nothing folds.
        engine.enable_maintenance(max_delta_fraction=0.99)
        mutate_region(engine, n_append=6, n_delete=5)
    return engine


def mutate_region(engine: Colarm, n_append: int, n_delete: int) -> None:
    if n_append:
        engine.append([[1 + i % 2, i % 3, 0, i % 2] for i in range(n_append)])
    if n_delete:
        inside = np.flatnonzero(np.isin(engine.table.data[:, 0], [1, 2]))
        engine.delete([int(t) for t in inside[:n_delete]])


def live_data(engine: Colarm) -> np.ndarray:
    """The live records, as the fold would collect them."""
    m = engine.maintenance
    main = np.delete(engine.table.data, ts.to_list(m.main_dead), axis=0)
    return np.vstack([main, m.delta_data()])


def live_dq_size(engine: Colarm, query: LocalizedQuery) -> int:
    """``|D^Q|`` by brute force over the live records."""
    return sum(
        all(record[a] in values
            for a, values in query.range_selections.items())
        for record in live_data(engine)
    )


class Counts:
    """Call counters on the steps a resolution and its kernels are made
    of."""

    def __init__(self, monkeypatch, engine: Colarm) -> None:
        self.tids_matching = self.delta_view = self.main_projections = 0
        self.masked = 0
        item_matrix = engine.index.table.item_matrix()[0]
        tids_matching = RelationalTable.tids_matching
        delta_view = MaintainedIndex.delta_view
        project_rows = kernels.project_rows
        masked = kernels.FocalKernel.masked.__func__

        def counted_tids_matching(table, selections):
            self.tids_matching += 1
            return tids_matching(table, selections)

        def counted_delta_view(maintained, query):
            self.delta_view += 1
            return delta_view(maintained, query)

        def counted_project_rows(matrix, mask_row):
            self.main_projections += matrix is item_matrix
            return project_rows(matrix, mask_row)

        def counted_masked(cls, n_items, universes):
            self.masked += 1
            return masked(cls, n_items, universes)

        monkeypatch.setattr(
            RelationalTable, "tids_matching", counted_tids_matching
        )
        monkeypatch.setattr(MaintainedIndex, "delta_view", counted_delta_view)
        monkeypatch.setattr(kernels, "project_rows", counted_project_rows)
        monkeypatch.setattr(
            kernels.FocalKernel, "masked", classmethod(counted_masked)
        )


def steer(monkeypatch, kind: PlanKind) -> None:
    """Make the optimizer pick ``kind`` (its real estimate, zeroed — in
    the six prices and in the one ARM is re-priced at once its floor no
    longer settles the pick)."""
    estimate_all, estimate = CostModel.estimate_all, CostModel.estimate

    def steered(model, profile):
        return {**estimate_all(model, profile), kind: 0.0}

    def steered_one(model, one, profile):
        return 0.0 if one is kind else estimate(model, one, profile)

    monkeypatch.setattr(CostModel, "estimate_all", steered)
    monkeypatch.setattr(CostModel, "estimate", steered_one)


@pytest.mark.parametrize("mutate", [False, True], ids=["main", "main+delta"])
@pytest.mark.parametrize("kind", list(PlanKind), ids=lambda k: k.value)
def test_planned_miss_resolves_once(monkeypatch, kind, mutate):
    engine = make_engine(mutate)
    steer(monkeypatch, kind)
    counts = Counts(monkeypatch, engine)
    outcome = engine.query(QUERY)
    assert outcome.plan is kind and outcome.chosen_by == "optimizer"
    assert counts.tids_matching == 1
    assert counts.delta_view == 1
    # The profile's masked kernel, which a MIP plan counts on; ARM alone
    # projects the main records too.
    assert counts.masked == 1
    assert counts.main_projections == (kind is PlanKind.ARM)
    assert outcome.dq_size == live_dq_size(engine, QUERY)


@pytest.mark.parametrize("mutate", [False, True], ids=["main", "main+delta"])
@pytest.mark.parametrize("kind", list(PlanKind), ids=lambda k: k.value)
def test_forced_plan_resolves_once(monkeypatch, kind, mutate):
    engine = make_engine(mutate)
    counts = Counts(monkeypatch, engine)
    outcome = engine.query(QUERY, plan=kind)
    assert outcome.plan is kind and outcome.chosen_by == "forced"
    assert counts.tids_matching == 1
    assert counts.delta_view == 1
    # Nothing is profiled: a MIP plan masks, ARM projects, neither both.
    assert counts.masked == (kind is not PlanKind.ARM)
    assert counts.main_projections == (kind is PlanKind.ARM)


def test_memoized_profile_still_resolves_once(monkeypatch):
    """A profile-memo hit hands no subset on; the execution makes the
    request's one resolution itself."""
    engine = make_engine(mutate=True)
    engine.query(QUERY)
    counts = Counts(monkeypatch, engine)
    outcome = engine.query(QUERY)
    assert outcome.choice.focus is None
    arm = outcome.plan is PlanKind.ARM
    assert (counts.tids_matching, counts.delta_view, counts.masked,
            counts.main_projections) == (1, 1, not arm, arm)


def test_three_minconfs_build_one_profile(monkeypatch):
    """The memo is keyed on what a profile reads — not ``minconf`` — and
    holds profiles only: no subset, no projection."""
    engine = make_engine(mutate=False)
    built = []
    # Every profile starts here (``from_query`` finishes one of these).
    floor_from_query = QueryProfile.floor_from_query.__func__

    def counted(cls, *args, **kwargs):
        built.append(args[0])
        return floor_from_query(cls, *args, **kwargs)

    monkeypatch.setattr(QueryProfile, "floor_from_query",
                        classmethod(counted))
    outcomes = [
        engine.query(LocalizedQuery(QUERY.range_selections, 0.35, minconf))
        for minconf in (0.5, 0.7, 0.9)
    ]
    assert len(built) == 1
    profiles = {id(o.choice.profile) for o in outcomes}
    assert len(profiles) == 1
    memo = engine.optimizer._profile_memo
    assert all(type(p) is QueryProfile for p in memo.values())
    # What a profile does read still splits the memo: minsupp, Aitem, and
    # the selections as spelled (a full-domain selection counts as a
    # range attribute in the cardinality pass).
    for variant in (
        LocalizedQuery(QUERY.range_selections, 0.4, 0.5),
        LocalizedQuery(QUERY.range_selections, 0.35, 0.5,
                       item_attributes=frozenset({1, 2, 3})),
        LocalizedQuery({**QUERY.range_selections, 3: frozenset({0, 1})},
                       0.35, 0.5),
    ):
        engine.query(variant)
    assert len(built) == 4


def projected(choice) -> bool:
    """Whether the choice's subset still holds item rows, in any form: the
    masked kernel, its int tidsets or ARM's projection."""
    return choice.focus is not None and any(
        choice.focus._lazy[k] is not None for k in (1, 2, 4)
    )


def test_projection_ends_with_the_request(monkeypatch):
    engine = make_engine(mutate=False)
    outcome = engine.query(QUERY)
    focus = outcome.choice.focus
    assert focus is not None and not projected(outcome.choice)
    # Still a usable resolution: the kernel comes back on demand.
    assert focus.kernel().dq_size == outcome.dq_size
    # The planner projects, so every way a priced choice ends releases:
    # one nobody executes, ...
    assert not projected(engine.choose_plan(QUERY))
    raw = engine.optimizer.choose(
        LocalizedQuery(QUERY.range_selections, 0.31, 0.6)
    )
    assert projected(raw)  # (what an un-released choice looks like)
    raw.release()
    # ... and one whose execution raises.
    priced = []
    choose = engine.optimizer.choose

    def recording(q):
        priced.append(choose(q))
        return priced[-1]

    def failing(*args, **kwargs):
        assert projected(priced[-1])
        raise RuntimeError("execution failed")

    monkeypatch.setattr(engine.optimizer, "choose", recording)
    monkeypatch.setattr("repro.core.engine.execute_plan", failing)
    with pytest.raises(RuntimeError):
        engine.query(LocalizedQuery(QUERY.range_selections, 0.32, 0.6))
    assert len(priced) == 1 and not projected(priced[0])


def test_projection_ends_with_a_cached_serve(monkeypatch):
    """A lattice-tier hit is served without pricing: nothing is resolved
    or projected, so there is no projection to end."""
    engine = make_engine(mutate=False)
    engine.enable_cache()
    engine.query(QUERY, plan="SS-VS")  # seeds the lattice tier
    looser = LocalizedQuery(QUERY.range_selections, QUERY.minsupp, 0.5)
    counts = Counts(monkeypatch, engine)
    outcome = engine.query(looser)
    assert outcome.cached and outcome.choice is None
    assert (counts.tids_matching, counts.masked,
            counts.main_projections) == (0, 0, 0)
    assert outcome.dq_size == live_dq_size(engine, QUERY)


def test_projection_ends_with_a_shed_flight():
    """A miss is priced — and projected — only when its flight runs: a
    request shed at a full queue, or queued and never run, resolves
    nothing, so there is no projection to end."""
    engine = make_engine(mutate=False)
    priced = []
    choose = engine.optimizer.choose

    def recording(*args, **kwargs):
        priced.append(choose(*args, **kwargs))
        return priced[-1]

    engine.optimizer.choose = recording

    async def scenario():
        service = QueryService(engine, ServingConfig(max_pending=1))
        task = asyncio.ensure_future(service.submit(QUERY))
        while service.n_pending != 1:
            await asyncio.sleep(0.01)
        with pytest.raises(ServiceOverloadError):
            await service.submit(
                LocalizedQuery(QUERY.range_selections, 0.31, 0.6)
            )
        # Queued, never run: the service stops without draining.
        await service.stop(drain=False)
        with pytest.raises(ServiceClosedError):
            await task

    asyncio.run(scenario())
    assert priced == []


@pytest.mark.parametrize("expand", [False, True], ids=["closed", "expanded"])
@pytest.mark.parametrize(
    "n_append, n_delete", [(0, 7), (9, 0), (9, 7)],
    ids=["tombstones", "delta", "both"],
)
def test_forced_cached_serve_reports_live_dq_size(n_append, n_delete, expand):
    """A forced plan served from the cache reports the same ``|D^Q|`` as
    its fresh execution on a maintained engine (it used to count the
    main table unmasked and ignore the delta)."""
    engine = Colarm(make_table(), primary_support=0.05, expand=expand)
    engine.enable_cache()
    engine.enable_maintenance(max_delta_fraction=0.99)
    mutate_region(engine, n_append, n_delete)
    fresh = engine.query(QUERY, plan="SS-VS")
    cached = engine.query(QUERY, plan="SS-VS")
    assert not fresh.cached and cached.cached
    assert cached.rules == fresh.rules
    assert fresh.dq_size == live_dq_size(engine, QUERY)
    assert cached.dq_size == fresh.dq_size


# -- staleness: a resolution made before a mutation is never executed on ----


def _append(engine):
    engine.append([[1, 0, 0, 0], [2, 1, 1, 1], [1, 2, 2, 0]])


def _delete(engine):
    inside = np.flatnonzero(np.isin(engine.table.data[:, 0], [1, 2]))
    engine.delete([int(t) for t in inside[-4:]])


def _fold(engine):
    """A finished background fold, installed by the next query."""
    engine.maintenance.begin_recompaction()
    engine.maintenance.poll_recompaction(wait=True)


@pytest.mark.parametrize("mutation", [_append, _delete, _fold])
def test_query_re_resolves_a_choice_priced_before_a_mutation(mutation):
    # Expanded mode: main+delta answers equal a rebuild's byte for byte.
    engine = make_engine(mutate=True, expand=True)
    choice = engine.optimizer.choose(QUERY)
    stale = choice.focus
    assert stale is not None
    mutation(engine)
    outcome = engine.query(QUERY)
    assert outcome.choice is not choice
    assert outcome.choice.focus is not stale
    assert outcome.dq_size == live_dq_size(engine, QUERY)
    rebuilt = Colarm(
        RelationalTable(engine.schema, live_data(engine)),
        primary_support=0.05, expand=True,
    )
    assert outcome.rules == rebuilt.query(QUERY, plan=outcome.plan).rules
    # The operator layer on its own refuses the stale subset too.
    ctx = make_context(
        engine.index, QUERY, delta=engine.maintenance, focus=stale
    )
    assert ctx.focus is not stale
    assert ctx.dq_size == outcome.dq_size


@pytest.mark.parametrize("mutation", [_append, _delete, _fold])
def test_service_re_resolves_a_request_queued_across_a_mutation(mutation):
    """A request queued before the mutation is priced when its flight
    runs, after it: the execution answers the live records."""
    engine = make_engine(mutate=True, expand=True)

    async def scenario():
        service = QueryService(engine)  # not started: the flight queues
        task = asyncio.ensure_future(service.submit(QUERY))
        deadline = asyncio.get_running_loop().time() + 5.0
        while service.n_pending != 1:
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.01)
        mutation(engine)
        await service.start()
        served = await asyncio.wait_for(task, 30)
        await service.stop()
        return served

    served = asyncio.run(scenario())
    assert served.outcome.dq_size == live_dq_size(engine, QUERY)
    rebuilt = Colarm(
        RelationalTable(engine.schema, live_data(engine)),
        primary_support=0.05, expand=True,
    )
    assert served.rules == rebuilt.query(QUERY, plan=served.plan).rules


def test_context_adopts_only_a_matching_resolution():
    engine = make_engine(mutate=True)
    index, m = engine.index, engine.maintenance
    focus = resolve_focal(index, QUERY, m)
    assert make_context(index, QUERY, delta=m, focus=focus).focus is focus
    same_region = LocalizedQuery(QUERY.range_selections, QUERY.minsupp, 0.9)
    assert make_context(index, same_region, delta=m, focus=focus).focus is focus
    for other in (
        LocalizedQuery(QUERY.range_selections, 0.5, 0.6),   # another floor
        LocalizedQuery({0: frozenset({1})}, 0.35, 0.6),     # another region
    ):
        ctx = make_context(index, other, delta=m, focus=focus)
        assert ctx.focus is not focus
        assert ctx.min_count == resolve_focal(index, other, m).min_count
    # Resolved without the delta store, executed with it.
    bare = resolve_focal(index, QUERY)
    assert make_context(index, QUERY, delta=m, focus=bare).focus is not bare
    assert execute_plan(
        PlanKind.SSVS, index, QUERY, delta=m, focus=bare
    ).dq_size == focus.dq_size


# -- the delta block's words ---------------------------------------------------


@pytest.mark.parametrize("mutate", [False, True], ids=["main", "main+delta"])
def test_estimate_all_prices_each_plans_own_loads(mutate):
    """Six prices from shared terms are the six load vectors priced one
    by one — with a live delta, without, and at an infinite ``verify``
    weight (where ARM, which has no verify load, must not turn ``nan``).
    A live delta is priced as more words of the loads that read it: over
    the same profile without the block, each MIP plan's ``eliminate``
    grows by ``cands x aitem_fraction x delta_words`` and its ``verify``
    by the masking pass's ``n_items x delta_words`` plus the sub-itemset
    table's ANDs over the block, ARM's ``select`` by ``n_items x
    delta_words``, and nothing else moves; a pristine index has no
    block."""
    engine = make_engine(mutate)
    optimizer = engine.optimizer
    n_items = float(sum(engine.index.stats.cardinalities))
    queries = (
        QUERY,
        LocalizedQuery({0: frozenset({1}), 2: frozenset({0, 1})}, 0.2, 0.5),
        LocalizedQuery({1: frozenset({0, 1, 2})}, 0.3, 0.5,
                       item_attributes=frozenset({0, 2, 3})),
    )
    for verify_weight in (optimizer.weights.weights["verify"], math.inf):
        optimizer.set_weights(CostWeights(
            {**optimizer.weights.weights, "verify": verify_weight}
        ))
        model, weights = optimizer.cost_model, optimizer.weights
        for query in queries:
            profile, _focus = optimizer.profile_for(query)
            words = profile.delta_words
            assert words == (engine.maintenance.buffer.words if mutate else 0)
            estimates = model.estimate_all(profile)
            assert list(estimates) == list(PlanKind)
            plain = dataclasses.replace(profile, delta_words=0)
            cands = {
                PlanKind.SEV: profile.n_cands,
                PlanKind.SVS: profile.n_cands,
                PlanKind.SSEV: profile.n_cands_supported,
                PlanKind.SSVS: profile.n_cands_supported,
                PlanKind.SSEUV: max(
                    profile.n_cands_supported - profile.n_contained, 0.0
                ),
            }
            for kind in PlanKind:
                loads = model.loads(kind, profile)
                assert estimates[kind] == weights.price(loads)
                assert not math.isnan(estimates[kind])
                assert math.isinf(estimates[kind]) == (
                    kind is not PlanKind.ARM and math.isinf(verify_weight)
                )
                grown = model.loads(kind, plain)
                if kind is PlanKind.ARM:
                    grown["select"] += n_items * words
                else:
                    grown["eliminate"] += (
                        cands[kind] * profile.aitem_fraction * words
                    )
                    grown["verify"] += (
                        n_items + profile.qualified_fanout / _LATTICE_SHARING
                    ) * words
                assert loads == pytest.approx(grown, rel=1e-12, abs=0)


def test_a_delta_with_no_focal_record_adds_no_words():
    """Appends outside the region plus a tombstone keep a delta view
    alive with no focal record: the masked kernel adds no block, so the
    profile prices none."""
    engine = make_engine(mutate=False)
    engine.enable_maintenance(max_delta_fraction=0.99)
    engine.append([[3 * (i % 2), i % 3, i % 3, i % 2] for i in range(100)])
    engine.delete([0])
    profile, focus = engine.optimizer.profile_for(QUERY)
    assert focus.delta is not None and focus.delta.dq_size == 0
    assert engine.maintenance.buffer.words > 0
    assert focus.kernel().words == engine.index.stats.tidset_words
    assert profile.delta_words == 0


@pytest.mark.parametrize("mutate", [False, True], ids=["main", "main+delta"])
@pytest.mark.parametrize("kind", [PlanKind.ARM, PlanKind.SSVS],
                         ids=lambda k: k.value)
def test_profile_and_execution_share_one_projection(monkeypatch, kind, mutate):
    """The profile measures on the masked kernel a MIP plan then counts
    through: one masked build per planned miss, and no read-out of its
    rows when ARM's F1 floor settles the pick (the SS-VS miss); an ARM
    miss reads them out once for the chain and the model, and adds one
    ``project_rows`` per universe and one read-out of the projection's
    rows, for CHARM; and the table's ``Item``-keyed tidsets are not on
    the request path at all."""
    engine = make_engine(mutate)
    steer(monkeypatch, kind)
    calls = {"project_rows": 0, "masked": 0, "kernel_tidsets": 0,
             "table_tidsets": 0}

    def counted(owner, attr, key):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(kernels, "project_rows", "project_rows")
    counted(kernels.FocalKernel, "masked", "masked")
    counted(kernels.FocalKernel, "item_tidsets", "kernel_tidsets")
    counted(RelationalTable, "item_tidsets", "table_tidsets")
    outcome = engine.query(QUERY)
    assert outcome.plan is kind and outcome.choice.focus is not None
    arm = kind is PlanKind.ARM
    assert calls == {
        "project_rows": (2 if mutate else 1) if arm else 0,
        "masked": 1,
        "kernel_tidsets": 2 * arm,
        "table_tidsets": 0,
    }
    # A memo hit resolves and projects nothing at planning time.
    calls.update(dict.fromkeys(calls, 0))
    choice = engine.optimizer.choose(QUERY)
    assert choice.focus is None and not any(calls.values())
