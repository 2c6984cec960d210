"""Incremental maintenance: delta-exactness against full rebuilds."""

import time

import numpy as np
import pytest

from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.dataset.table import RelationalTable
from repro.errors import DataError, QueryError
from tests.conftest import make_random_table


def rule_key(rules):
    return sorted(
        (r.antecedent, r.consequent, r.support_count, round(r.confidence, 12))
        for r in rules
    )


@pytest.fixture()
def maintained():
    table = make_random_table(seed=111, n_records=80,
                              cardinalities=(4, 3, 3, 2))
    index = build_mip_index(table, primary_support=0.05)
    return table, MaintainedIndex(index)


def answer(mx, query):
    """S-E-V over live main+delta: the plan path every caller shares."""
    return execute_plan(PlanKind.SEV, mx.index, query, delta=mx).rules


QUERY = LocalizedQuery({0: frozenset({1, 2})}, 0.35, 0.6)


def make_new_records(n, seed, cards=(4, 3, 3, 2)):
    rng = np.random.default_rng(seed)
    return [
        [int(rng.integers(0, c)) for c in cards]
        for _ in range(n)
    ]


def test_no_delta_matches_plain_index(maintained):
    table, mx = maintained
    index = build_mip_index(table, primary_support=0.05)
    expected = execute_plan(PlanKind.SEV, index, QUERY).rules
    assert rule_key(answer(mx, QUERY)) == rule_key(expected)


def test_delta_query_equals_full_rebuild(maintained):
    """The delta-corrected answer must equal mining the combined table."""
    table, mx = maintained
    new_records = make_new_records(7, seed=5)
    mx.append(new_records)
    assert mx.n_delta_records == 7
    assert mx.coverage_guaranteed(QUERY, dq_size=40) or True  # informational

    combined = RelationalTable(
        table.schema,
        np.vstack([table.data, np.asarray(new_records, dtype=np.int32)]),
    )
    fresh = build_mip_index(combined, primary_support=0.05)
    expected = execute_plan(PlanKind.SEV, fresh, QUERY).rules
    got = answer(mx, QUERY)
    # Exactness holds when the coverage condition is met for this query;
    # with 7 delta records over 80 it comfortably is for minsupp 0.35.
    assert rule_key(got) == rule_key(expected)


def test_recompact_folds_delta(maintained):
    table, mx = maintained
    mx.append(make_new_records(5, seed=9))
    before = answer(mx, QUERY)
    g0 = mx.generation
    assert mx.recompact() == mx.generation > g0
    assert mx.n_delta_records == 0
    assert mx.n_main_records == 85
    assert (mx.n_rebuilds, mx.n_recompactions) == (1, 0)
    assert rule_key(answer(mx, QUERY)) == rule_key(before)
    assert mx.recompact() is None  # nothing pending: nothing to fold


def test_size_bound_starts_a_background_fold():
    """The maintained index never folds on a mutation; the engine reads
    ``fold_due`` after each one and starts a background fold, which a
    poll installs."""
    from repro.core.engine import Colarm

    table = make_random_table(seed=113, n_records=60,
                              cardinalities=(4, 3, 3, 2))
    engine = Colarm(table, primary_support=0.05)
    engine.enable_maintenance(max_delta_fraction=0.1, calibrate=False)
    mx = engine.maintenance
    engine.append(make_new_records(5, seed=1))  # 5/60 = 8.3% -> not due
    assert not mx.fold_due and not mx.recompacting
    mx.append(make_new_records(3, seed=2))      # 8/60 > 10%, bare index
    assert mx.fold_due and not mx.recompacting
    engine.delete([0])                          # the engine starts it
    assert mx.recompacting
    deadline = time.monotonic() + 30
    while not engine.poll_maintenance():  # the next poll installs it
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert not mx.recompacting and not mx.fold_due
    assert (mx.n_recompactions, mx.n_rebuilds) == (1, 0)
    assert engine.index is mx.index
    assert mx.n_main_records == 67 and mx.n_pending == 0


def test_recompact_waits_out_a_fold_in_flight_and_folds_the_rest():
    """A synchronous fold called while a background one builds installs
    it and then folds the mutations that landed mid-build: nothing is
    left pending, and every forced plan answers as the oracle does over
    the live rows."""
    from repro.core.engine import Colarm
    from tests import oracle

    cards = (4, 3, 3, 2)
    table = make_random_table(seed=137, n_records=80, cardinalities=cards)
    engine = Colarm(table, primary_support=0.05)
    engine.enable_maintenance(max_delta_fraction=0.5, calibrate=False)
    mx = engine.maintenance
    first = make_new_records(6, seed=141)
    engine.append(first)
    assert mx.begin_recompaction()
    # Straight into the maintained index: an engine mutation would poll,
    # and might install the fold before the mutations land.
    late = make_new_records(4, seed=142)
    mx.append(late)
    mx.delete([7, 81])  # a main record, a pre-snapshot delta record
    assert mx.recompact() is not None
    engine.poll_maintenance()
    assert not mx.recompacting
    assert mx.n_pending == 0
    assert engine.index is mx.index

    stored = [tuple(row) for row in table.data.tolist()]
    live = [row for tid, row in enumerate(stored) if tid != 7]
    live += [tuple(row) for i, row in enumerate(first) if i != 1]
    live += [tuple(row) for row in late]
    assert mx.n_records == len(live)
    for query in (QUERY, LocalizedQuery({2: frozenset({1})}, 0.2, 0.5)):
        dq = oracle.focal_rows(live, query)
        want = {
            "arm": oracle.arm_rules(live, query, expand=False),
            "mip": oracle.mip_rules(
                live, engine.index.primary_support, live, 0, query,
                expand=False,
            ),
        }
        for kind in PlanKind:
            out = engine.query(query, plan=kind)
            assert out.dq_size == len(dq)
            family = "arm" if kind is PlanKind.ARM else "mip"
            assert [tuple(rule) for rule in out.rules] == want[family], kind


def test_disable_maintenance_folds_everything_pending():
    from repro.core.engine import Colarm

    table = make_random_table(seed=139, n_records=60,
                              cardinalities=(4, 3, 3, 2))
    engine = Colarm(table, primary_support=0.05)
    engine.enable_cache()
    engine.enable_maintenance(max_delta_fraction=0.5, calibrate=False)
    engine.append(make_new_records(4, seed=3))
    assert engine.maintenance.begin_recompaction()
    engine.maintenance.append(make_new_records(2, seed=4))
    engine.disable_maintenance()
    assert engine.maintenance is None and engine.optimizer.delta_source is None
    assert engine.index.table.n_records == 66
    assert engine.optimizer.index is engine.index
    assert engine.cache.index is engine.index


def test_append_validation(maintained):
    _, mx = maintained
    with pytest.raises(DataError):
        mx.append([[0, 0]])  # wrong width
    with pytest.raises(DataError):
        mx.append([[9, 0, 0, 0]])  # out of domain


def test_coverage_guarantee_boundary(maintained):
    _, mx = maintained
    mx.append(make_new_records(6, seed=3))
    # floor = 0.05 * 80 = 4; guarantee needs minsupp*dq >= 4 + 6 = 10
    q_ok = LocalizedQuery({0: frozenset({1})}, 0.5, 0.5)
    q_bad = LocalizedQuery({0: frozenset({1})}, 0.2, 0.5)
    assert mx.coverage_guaranteed(q_ok, dq_size=25)
    assert not mx.coverage_guaranteed(q_bad, dq_size=25)


def test_empty_focal_subset(maintained):
    _, mx = maintained
    impossible = LocalizedQuery(
        {0: frozenset({3}), 1: frozenset({2}), 2: frozenset({2}),
         3: frozenset({1})},
        0.5, 0.5,
    )
    if mx.index.table.tids_matching(impossible.range_selections):
        pytest.skip("selection unexpectedly non-empty")
    with pytest.raises(QueryError, match="focal subset is empty"):
        answer(mx, impossible)


def test_many_appends_random_equivalence():
    """Randomized: repeated appends, each query checked vs full rebuild."""
    table = make_random_table(seed=117, n_records=70,
                              cardinalities=(3, 3, 2, 3))
    mx = MaintainedIndex(build_mip_index(table, primary_support=0.04))
    all_rows = [table.data]
    rng = np.random.default_rng(0)
    for step in range(3):
        new = make_new_records(4, seed=step + 40, cards=(3, 3, 2, 3))
        mx.append(new)
        all_rows.append(np.asarray(new, dtype=np.int32))
        combined = RelationalTable(table.schema, np.vstack(all_rows))
        fresh = build_mip_index(combined, primary_support=0.04)
        query = LocalizedQuery(
            {int(rng.integers(0, 4)): frozenset({0, 1})}, 0.4, 0.6
        )
        expected = execute_plan(PlanKind.SEV, fresh, query).rules
        assert rule_key(answer(mx, query)) == rule_key(expected), step


def test_append_bumps_generation(maintained):
    """Every delta mutation must advance the logical generation — the
    staleness token every cache entry and priced choice is stamped with."""
    _, mx = maintained
    g0 = mx.generation
    mx.append(make_new_records(3, seed=21))
    g1 = mx.generation
    assert g1 > g0
    mx.delete([0])
    assert mx.generation > g1


def test_cache_staleness_append_between_populate_and_probe():
    """Regression for the staleness hole: a cache entry populated before
    an append must not be served after it — the append bumps the
    generation, the probe drops the stale entry, and the fresh answer
    reflects the delta."""
    table = make_random_table(seed=119, n_records=90,
                              cardinalities=(4, 3, 3, 2))
    from repro.core.engine import Colarm

    engine = Colarm(table, primary_support=0.05)
    engine.enable_cache()
    engine.enable_maintenance(calibrate=False)
    engine.query(QUERY, plan=PlanKind.SEV)       # populates the cache
    assert engine.cache.probe(QUERY).kind == "rules"

    new_records = make_new_records(6, seed=31)
    engine.append(new_records)
    assert engine.cache.probe(QUERY).kind is None  # stale entry dropped

    combined = RelationalTable(
        table.schema,
        np.vstack([table.data, np.asarray(new_records, dtype=np.int32)]),
    )
    fresh = build_mip_index(combined, primary_support=0.05)
    expected = execute_plan(PlanKind.SEV, fresh, QUERY).rules
    got = engine.query(QUERY, plan=PlanKind.SEV)
    assert not got.cached
    assert rule_key(got.rules) == rule_key(expected)
    # The delta-corrected answer repopulated the cache at the new
    # generation; the repeat serves it byte-identically.
    again = engine.query(QUERY, plan=PlanKind.SEV)
    assert again.cached
    assert rule_key(again.rules) == rule_key(expected)


def test_delete_matches_rebuild_of_live_subset(maintained):
    table, mx = maintained
    new = make_new_records(6, seed=13)
    mx.append(new)
    # Tombstone two main records and one delta record (tid 80+2 = delta 2).
    mx.delete([3, 17, 82])
    assert mx.n_main_live == 78
    assert mx.n_delta_records == 5
    live_main = np.delete(table.data, [3, 17], axis=0)
    live_delta = np.asarray(new, dtype=np.int32)[[0, 1, 3, 4, 5]]
    fresh = build_mip_index(
        RelationalTable(table.schema, np.vstack([live_main, live_delta])),
        primary_support=0.05,
    )
    expected = execute_plan(PlanKind.SEV, fresh, QUERY).rules
    assert rule_key(answer(mx, QUERY)) == rule_key(expected)
    # Deletes are idempotent; repeating them changes nothing but the clock.
    mx.delete([3, 82])
    assert mx.n_main_live == 78 and mx.n_delta_records == 5
    assert rule_key(answer(mx, QUERY)) == rule_key(expected)


def test_batched_append_validation_is_all_or_nothing(maintained):
    """The batched validation admits no partial writes: one bad row
    rejects the whole batch before anything lands in the delta store."""
    _, mx = maintained
    g0 = mx.generation
    with pytest.raises(DataError):
        mx.append([[0, 0, 0, 0], [1, 1]])          # ragged batch
    with pytest.raises(DataError):
        mx.append([[0, 0, 0, 0], [0, 9, 0, 0]])    # out-of-domain value
    with pytest.raises(DataError):
        mx.append([[0, 0, 0, -1]])                 # negative value
    with pytest.raises(DataError):
        mx.append([["a", "b", "c", "d"]])          # non-integer payload
    assert mx.n_delta_records == 0
    assert mx.generation == g0


def test_delta_buffer_grows_as_packed_matrices(maintained):
    """The delta store is one growable 2-D array per matrix (amortized
    doubling), not a list of per-record rows."""
    _, mx = maintained
    buf = mx.buffer
    assert isinstance(buf.data, np.ndarray) and buf.data.ndim == 2
    assert isinstance(buf.items, np.ndarray) and buf.items.ndim == 2
    assert buf.items.dtype == np.dtype("<u8")
    start_capacity = buf.capacity
    mx.append(make_new_records(start_capacity + 1, seed=55))
    assert mx.buffer.capacity >= 2 * start_capacity
    assert mx.buffer.n_live == start_capacity + 1
    # Capacity growth keeps the packed columns word-aligned.
    assert mx.buffer.items.shape[1] == -(-mx.buffer.capacity // 64)


def test_background_recompaction_with_interleaved_mutations(maintained):
    """Appends and deletes racing a background fold land in the op log and
    survive the install — the final state equals a from-scratch build."""
    table, mx = maintained
    mx.append(make_new_records(8, seed=61))
    before = rule_key(answer(mx, QUERY))
    assert mx.begin_recompaction()
    # Mutations while the fold is in flight:
    late = make_new_records(4, seed=62)
    mx.append(late)
    mx.delete([2, 81])  # one main record, one pre-snapshot delta record
    generation = mx.poll_recompaction(wait=True)
    assert generation is not None and mx.generation == generation
    assert not mx.recompacting

    rows = [table.data]
    delta = np.asarray(make_new_records(8, seed=61), dtype=np.int32)
    rows.append(np.delete(delta, [1], axis=0))  # tid 81 = delta pos 1
    live_main = np.delete(table.data, [2], axis=0)
    combined = np.vstack([live_main, np.delete(delta, [1], axis=0),
                          np.asarray(late, dtype=np.int32)])
    fresh = build_mip_index(
        RelationalTable(table.schema, combined), primary_support=0.05
    )
    expected = execute_plan(PlanKind.SEV, fresh, QUERY).rules
    assert rule_key(answer(mx, QUERY)) == rule_key(expected)
    assert rule_key(answer(mx, QUERY)) != before or before == rule_key(expected)


def test_engine_append_delete_and_background_fold():
    """Colarm.append/delete ride the delta store; outgrowing the fraction
    starts a background fold that the next query installs, rebinding the
    optimizer and cache to the fresh index."""
    from repro.core.engine import Colarm

    table = make_random_table(seed=127, n_records=80,
                              cardinalities=(4, 3, 3, 2))
    engine = Colarm(table, primary_support=0.05)
    engine.enable_cache()
    engine.enable_maintenance(max_delta_fraction=0.1, calibrate=False)
    old_index = engine.index

    gen = engine.append(make_new_records(5, seed=71))
    assert gen == engine.index.generation
    engine.delete([0])
    assert engine.maintenance.n_main_live == 79
    # 5 appends + 1 tombstone < 10% of 80: no fold yet.
    assert not engine.maintenance.recompacting and engine.index is old_index

    engine.append(make_new_records(4, seed=72))  # 10 mutations > 8: fold
    engine.maintenance.poll_recompaction(wait=True)
    outcome = engine.query(QUERY)  # installs the finished fold
    assert engine.index is not old_index
    assert engine.index is engine.maintenance.index
    assert engine.optimizer.index is engine.index
    assert engine.cache.index is engine.index
    # ... and that is all a swap rebinds: there is no worker pool to restart.
    assert not any(
        hasattr(engine, name) for name in ("parallel", "configure", "close")
    )
    assert engine.maintenance.n_delta_records == 0
    assert engine.index.table.n_records == 88  # 80 - 1 dead + 9 appended

    combined = engine.index.table
    fresh = build_mip_index(combined, primary_support=0.05)
    expected = execute_plan(PlanKind.SEV, fresh, QUERY).rules
    assert rule_key(execute_plan(
        PlanKind.SEV, engine.index, QUERY,
        delta=engine.maintenance).rules) == rule_key(expected)
    assert outcome.n_rules >= 0  # the install path returned a live answer


def test_maintained_persistence_roundtrip(tmp_path, maintained):
    """save_maintained/load_maintained: the sidecar replays tombstones and
    delta records and restores the generation clock."""
    from repro.core.persistence import (
        delta_sidecar_path,
        load_maintained,
        save_maintained,
    )

    _, mx = maintained
    mx.append(make_new_records(6, seed=91))
    mx.delete([5, 82])
    before = rule_key(answer(mx, QUERY))
    path = tmp_path / "m.colarm.npz"
    save_maintained(mx, path)
    assert delta_sidecar_path(path).exists()

    loaded, _weights = load_maintained(path)
    assert loaded.generation == mx.generation
    assert loaded.n_main_records == mx.n_main_records
    assert loaded.n_main_live == mx.n_main_live
    assert loaded.n_delta_records == mx.n_delta_records
    assert rule_key(answer(loaded, QUERY)) == before


def test_a_sidecar_carrying_the_old_fold_flag_loads_the_same(
    tmp_path, maintained
):
    """Every sidecar written before the fold policy moved out of the
    maintained index carries ``"auto_rebuild": true`` in its meta; such a
    file loads with the same generation, delta rows and tombstones, and
    folds nothing on load."""
    import json

    from repro.core.persistence import (
        delta_sidecar_path,
        load_maintained,
        save_maintained,
    )

    _, mx = maintained
    mx.append(make_new_records(12, seed=93))  # past the 0.1 bound
    mx.delete([5, 83])
    assert mx.fold_due
    path = tmp_path / "old.colarm.npz"
    save_maintained(mx, path)
    sidecar = delta_sidecar_path(path)
    with np.load(sidecar) as archive:
        members = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(members["meta"]).decode())
    assert "auto_rebuild" not in meta
    meta["auto_rebuild"] = True
    members["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(sidecar, **members)

    loaded, _weights = load_maintained(path)
    assert loaded.generation == mx.generation
    assert np.array_equal(loaded.delta_data(), mx.delta_data())
    assert loaded.main_dead == mx.main_dead
    assert loaded.n_main_records == mx.n_main_records
    assert not loaded.recompacting
    assert (loaded.n_rebuilds, loaded.n_recompactions) == (0, 0)


def test_service_ingest_is_serialized_with_queries():
    """QueryService.ingest lands batches atomically between flights."""
    import asyncio

    from repro.core.engine import Colarm
    from repro.serving import QueryService

    table = make_random_table(seed=131, n_records=80,
                              cardinalities=(4, 3, 3, 2))
    engine = Colarm(table, primary_support=0.05)
    engine.enable_maintenance(calibrate=False)

    async def scenario():
        async with QueryService(engine) as svc:
            first = await svc.submit(QUERY)
            gen = await svc.ingest(make_new_records(6, seed=81))
            assert gen == engine.index.generation
            second = await svc.submit(QUERY)
            gen2 = await svc.remove([1])
            assert gen2 > gen
            third = await svc.submit(QUERY)
            snap = svc.snapshot()
            return first, second, third, snap

    first, second, third, snap = asyncio.run(scenario())
    assert snap["maintenance"]["delta_records"] == 6
    assert snap["maintenance"]["main_live"] == 79
    live = np.vstack([
        np.delete(table.data, [1], axis=0),
        np.asarray(make_new_records(6, seed=81), dtype=np.int32),
    ])
    fresh = build_mip_index(
        RelationalTable(table.schema, live), primary_support=0.05
    )
    expected = execute_plan(PlanKind.SEV, fresh, QUERY).rules
    assert rule_key(third.rules) == rule_key(expected)
    assert first.rules is not None and second.rules is not None


def test_flat_form_tracks_index_lifecycle(maintained):
    """Delta mutations leave the main index's packed R-tree alone, and a
    fold's fresh index carries a fresh tree over exactly its own MIPs."""
    from tests.rtree.reference import full_domain

    _, mx = maintained
    tree = mx.index.flat_rtree
    mx.append(make_new_records(5, seed=77))
    mx.delete([0])
    assert mx.index.flat_rtree is tree

    mx.recompact()
    assert mx.index.flat_rtree is not tree
    full = full_domain(mx.index.cardinalities)
    hits = mx.index.rtree.search_arrays(full)
    assert sorted(hits.rows.tolist()) == list(range(mx.index.n_mips))
    assert hits.counts.tolist() == mx.index.global_counts[hits.rows].tolist()


def test_failed_background_fold_surfaces_and_keeps_serving(monkeypatch):
    """An error inside the fold thread is handed to the next
    ``poll_recompaction`` as the very exception raised, and the engine
    keeps answering over main+delta, exactly as the oracle does."""
    from repro.core import maintenance
    from repro.core.engine import Colarm
    from tests import oracle

    cards = (3, 3, 2)
    table = make_random_table(seed=131, n_records=40, cardinalities=cards)
    engine = Colarm(table, primary_support=0.1)
    engine.enable_maintenance(max_delta_fraction=0.5, calibrate=False)
    appended = make_new_records(5, seed=73, cards=cards)
    engine.append(appended)
    engine.delete([4])
    index, generation = engine.index, engine.index.generation

    failure = MemoryError("the fold ran out of memory")

    def failing_build(*args, **kwargs):
        raise failure

    monkeypatch.setattr(maintenance, "build_mip_index", failing_build)
    assert engine.maintenance.begin_recompaction()
    with pytest.raises(MemoryError) as raised:
        engine.maintenance.poll_recompaction(wait=True)
    assert raised.value is failure
    assert not engine.maintenance.recompacting
    assert engine.index is index and engine.index.generation == generation

    stored = [tuple(row) for row in table.data.tolist()]
    live = [row for tid, row in enumerate(stored) if tid != 4]
    live += [tuple(row) for row in appended]
    for query in (QUERY, LocalizedQuery({2: frozenset({1})}, 0.2, 0.5)):
        dq = oracle.focal_rows(live, query)
        want = {
            "arm": oracle.arm_rules(live, query, expand=False),
            "mip": oracle.mip_rules(
                stored, index.primary_support, live, 0, query, expand=False
            ),
        }
        for kind in PlanKind:
            out = engine.query(query, plan=kind)
            assert out.dq_size == len(dq)
            family = "arm" if kind is PlanKind.ARM else "mip"
            assert [tuple(rule) for rule in out.rules] == want[family], kind
    assert engine.index is index
