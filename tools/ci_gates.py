"""CI gate runner: a scaled-down ACC accuracy/regret check with
thresholds loaded from the checked-in ``ci_gates.json``.

The full 108-scenario ACC experiment (``benchmarks/
bench_optimizer_accuracy.py``) takes ~90 s plus three index builds; CI
runs this subset instead — one dataset, a reduced focal-fraction grid,
the same seed and methodology — and enforces the thresholds the repo has
committed to.  A cost-model regression (a broken ARM weight, a formula
change that misprices a plan family) shows up here as a failed gate, not
as a silently slower optimizer.

Usage::

    PYTHONPATH=src:benchmarks python tools/ci_gates.py
    ... --config ci_gates.json --report benchmarks/results/ci_gates.json
    ... --only serving            # run a single gate
    ... --override-weight arm=0   # sanity check: must FAIL the gate
    ... --only serving --corrupt-admission       # likewise: must FAIL
    ... --only maintenance --corrupt-maintenance # likewise: must FAIL
    ... --only maintenance --corrupt-delta-pricing # likewise: must FAIL
    ... --only cluster --corrupt-placement       # likewise: must FAIL
    ... --only setup --corrupt-setup             # likewise: must FAIL
    ... --only heap --corrupt-heap               # likewise: must FAIL

``--override-weight`` deliberately corrupts one fitted weight after
calibration, ``--corrupt-admission`` routes the serving layer's cache
hits through its engine thread, ``--corrupt-maintenance`` severs the delta-store merge
correction, ``--corrupt-delta-pricing`` prices every request as if it had
no delta block, ``--corrupt-placement`` sends every cluster miss to the
lowest worker id whatever its load, ``--corrupt-setup`` puts a full collection back in front
of every calibration probe leg, and ``--corrupt-heap`` caches ``Rule``
objects in place of rule blocks; they exist so the gates themselves can be
tested (a gate that cannot fail gates nothing).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))


#: Independently built and calibrated engines behind one ACC verdict.
ACC_CALIBRATIONS = 3


def run_acc_gate(config: dict, overrides: dict[str, float]) -> dict:
    """Run the reduced ACC experiment and evaluate its thresholds.

    Each check is the **median over three calibrations** (three engines,
    each built, calibrated and put through the whole experiment): with 18
    scenarios ``strict_accuracy`` moves in steps of 1/18, and one
    calibration's fit flipped a near-tie scenario — and with it the
    0.33 bar — about one run in three.  The bars are unchanged.

    ``planning_share`` holds the optimizer to its own budget: per
    scenario, one un-memoized ``choose()`` over ``choose()`` plus the
    plan it chose, timed as a request runs them — a MIP plan adopts the
    masked kernel ``choose()`` built, so the kernel counts once, as
    planning — the median over the scenarios.
    A planner that re-derives what the execution derives anyway (or a
    profile that stops being a pass over precomputed statistics) shows
    up here while every accuracy number stays put.
    """
    from _harness import build_engine, run_accuracy, summarize_accuracy
    from repro.core.costs import CostWeights
    from repro.workloads.experiments import EXPERIMENTS

    spec = EXPERIMENTS[config["dataset"]]
    build_s = run_s = 0.0
    summaries = []
    for _ in range(ACC_CALIBRATIONS):
        t0 = time.perf_counter()
        engine = build_engine(spec)
        build_s += time.perf_counter() - t0

        if overrides:
            weights = dict(engine.optimizer.weights.weights)
            weights.update(overrides)
            engine.optimizer.set_weights(CostWeights(weights))

        t0 = time.perf_counter()
        records = run_accuracy(
            engine,
            spec,
            tuple(config["fractions"]),
            seed=config["seed"],
            repetitions=config["repetitions"],
        )
        run_s += time.perf_counter() - t0
        summaries.append(summarize_accuracy(records))
    summary = {
        key: statistics.median(float(s[key]) for s in summaries)
        for key in summaries[0]
    }

    checks = {
        "strict_accuracy": (
            summary["strict_accuracy"],
            ">=",
            config["min_strict_accuracy"],
        ),
        "tolerant_accuracy": (
            summary["tolerant_accuracy"],
            ">=",
            config["min_tolerant_accuracy"],
        ),
        "extra_cost": (summary["extra_cost"], "<=", config["max_extra_cost"]),
        "planning_share": (
            summary["planning_share"],
            "<=",
            config["max_planning_share"],
        ),
    }
    failures = [
        name
        for name, (value, op, bound) in checks.items()
        if (value < bound if op == ">=" else value > bound)
    ]

    # Estimate-vs-actual feedback of the last calibration's run.
    residuals = {
        kind.value: stats
        for kind, stats in engine.optimizer.residual_summary().items()
    }
    return {
        "dataset": config["dataset"],
        "scenarios": int(summary["n"]),
        "calibrations": ACC_CALIBRATIONS,
        "build_s": round(build_s, 2),
        "run_s": round(run_s, 2),
        "summary": {k: round(float(v), 4) for k, v in summary.items()},
        "per_calibration": [
            {k: round(float(v), 4) for k, v in s.items()} for s in summaries
        ],
        "checks": {
            name: {"value": round(float(v), 4), "op": op, "bound": bound}
            for name, (v, op, bound) in checks.items()
        },
        "residuals": residuals,
        "weight_overrides": overrides,
        "passed": not failures,
        "failures": failures,
    }


def run_setup_gate(config: dict, corrupt: bool = False) -> dict:
    """The offline phase must not be spent in the garbage collector.

    Times ``Colarm(...)`` + ``calibrate()`` on one look-alike table, with
    every collection of the run clocked through ``gc.callbacks``:

    * the collector's share of the set-up stays under ``max_gc_share`` —
      a full collection walks the whole index heap, and one before each
      of calibration's probe executions (48 then; 24 legs now, three per
      probe) was three-quarters of set-up;
    * the set-up finishes under the recorded ``max_setup_s``.

    ``corrupt=True`` reinstates a ``gc.collect()`` in front of every probe
    leg — at ``plans.make_context``, which S-E-V's SEARCH -> ELIMINATE leg
    and every whole plan run go through; the gate must then FAIL.
    """
    import gc

    from repro.core import plans
    from repro.core.engine import Colarm
    from repro.workloads.experiments import EXPERIMENTS

    spec = EXPERIMENTS[config["dataset"]]
    table = spec.make_table()
    gc_s = 0.0
    collections = 0
    started = 0.0

    def clock(phase: str, info: dict) -> None:
        nonlocal gc_s, collections, started
        if phase == "start":
            started = time.perf_counter()
        else:
            gc_s += time.perf_counter() - started
            collections += 1

    make_context = plans.make_context

    def collect_then_make_context(*args, **kwargs):
        gc.collect()
        return make_context(*args, **kwargs)

    if corrupt:
        plans.make_context = collect_then_make_context
    gc.callbacks.append(clock)
    try:
        t0 = time.perf_counter()
        engine = Colarm(table, primary_support=spec.primary_support)
        engine.calibrate()
        setup_s = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(clock)
        plans.make_context = make_context
    gc_share = gc_s / setup_s
    failures = []
    if gc_share >= config["max_gc_share"]:
        failures.append("setup_gc_share")
    if setup_s >= config["max_setup_s"]:
        failures.append("setup_seconds")
    return {
        "dataset": config["dataset"],
        "n_mips": engine.n_mips,
        "setup_s": round(setup_s, 3),
        "gc_s": round(gc_s, 3),
        "gc_share": round(gc_share, 3),
        "collections": collections,
        "max_gc_share": config["max_gc_share"],
        "max_setup_s": config["max_setup_s"],
        "corrupted": corrupt,
        "passed": not failures,
        "failures": failures,
    }


def run_heap_gate(config: dict, corrupt: bool = False) -> dict:
    """What a warm rule cache leaves on the collector's plate.

    ``Colarm(...)`` on a mushroom look-alike (the end-to-end benchmark's
    ``served`` table) with a 16 MB rule cache answers a Zipf(1.1) stream
    over ``regions x minconfs`` keys; then one full collection runs.
    Gated: the number of gc-tracked objects alive afterwards, and the
    longest gen-2 pause ``gc.callbacks`` saw from the first query on (the
    closing collection included, so the pause over the resident heap is
    always measured).  A cached rule list is one
    columnar block, so neither grows with the number of cached rules.

    ``corrupt=True`` caches ``list(block)`` — the ``Rule`` objects — in
    place of each block; the gate must then FAIL.
    """
    import gc
    from dataclasses import replace

    import numpy as np

    from repro.cache import RuleCache
    from repro.core.engine import Colarm
    from repro.dataset.synthetic import mushroom_like
    from repro.workloads.queries import random_focal_query

    table = mushroom_like(
        n_records=int(config["n_records"]),
        n_attributes=int(config["n_attributes"]),
    )
    engine = Colarm(table, primary_support=config["primary_support"])
    engine.enable_cache(budget_bytes=int(config["cache_mb"]) << 20)
    rng = np.random.default_rng(int(config["seed"]))
    cells = [(f, s) for f in config["fractions"] for s in config["minsupps"]]
    regions: dict = {}
    while len(regions) < int(config["regions"]):
        fraction, minsupp = cells[len(regions) % len(cells)]
        q = random_focal_query(table, fraction, minsupp, 0.5, rng).query
        regions.setdefault((engine.cache.focal_key(q), minsupp), q)
    pool = [
        replace(q, minconf=minconf)
        for q in regions.values()
        for minconf in config["minconfs"]
    ]
    pool = [pool[i] for i in rng.permutation(len(pool))]
    weights = 1.0 / np.arange(1, len(pool) + 1) ** float(config["zipf_s"])
    stream = rng.choice(
        len(pool), size=int(config["n_queries"]), p=weights / weights.sum()
    )

    insert = RuleCache._insert

    def insert_rule_objects(self, key, kind, payload, *rest):
        if kind == "rules":
            payload = list(payload)
        return insert(self, key, kind, payload, *rest)

    longest = started = 0.0
    full_collections = 0

    def clock(phase: str, info: dict) -> None:
        nonlocal longest, started, full_collections
        if info["generation"] != 2:
            return
        if phase == "start":
            started = time.perf_counter()
        else:
            longest = max(longest, time.perf_counter() - started)
            full_collections += 1

    if corrupt:
        RuleCache._insert = insert_rule_objects
    gc.callbacks.append(clock)
    try:
        n_rules = sum(len(engine.query(pool[i]).rules) for i in stream)
        gc.collect()
    finally:
        gc.callbacks.remove(clock)
        RuleCache._insert = insert
    tracked = len(gc.get_objects())
    failures = []
    if tracked > config["max_tracked_objects"]:
        failures.append("heap_tracked_objects")
    if longest * 1e3 > config["max_gen2_pause_ms"]:
        failures.append("heap_gen2_pause")
    return {
        "queries": len(stream),
        "rules_served": n_rules,
        "cache_entries": len(engine.cache),
        "cache_stats": engine.cache.stats.as_dict(),
        "tracked_objects": tracked,
        "max_tracked_objects": config["max_tracked_objects"],
        "full_collections": full_collections,
        "longest_gen2_pause_ms": round(longest * 1e3, 2),
        "max_gen2_pause_ms": config["max_gen2_pause_ms"],
        "corrupted": corrupt,
        "passed": not failures,
        "failures": failures,
    }


def run_serving_selftest(config: dict, corrupt: bool = False) -> dict:
    """Cache hits never wait for the engine: the concurrent service's
    one structural promise, checked twice.

    * **a warm hit overtakes a parked miss** — with one execution parked
      on an event while it holds the engine thread, an optimizer-planned
      request whose rules entry is cached must still be answered (after
      its one cache probe, on the loop thread, unpriced) before the miss
      is released.
    * **a forced hit overtakes a parked miss** — the same for a request
      forcing a plan (``ARM``) whose family entry is cached.

    A regression that routes hits back through pricing or the engine
    thread times out here.  ``corrupt=True`` does exactly that: the
    service's inline probe finds nothing, so every request, hits
    included, becomes a flight on the engine thread — both legs must then
    FAIL (a gate that cannot fail gates nothing).
    """
    import asyncio

    from repro.core.calibration import default_probe_queries
    from repro.core.engine import Colarm
    from repro.dataset.salary import salary_dataset

    t0 = time.perf_counter()
    engine = Colarm(
        salary_dataset(),
        primary_support=float(config.get("primary_support", 0.15)),
    )
    build_s = time.perf_counter() - t0
    queries = default_probe_queries(
        engine.index,
        n_queries=int(config["n_queries"]),
        seed=int(config["seed"]),
    )
    cold = queries[1]
    overtook = {
        plan: asyncio.run(
            _hit_overtakes_parked_miss(engine, warm, cold, plan, corrupt)
        )
        for warm, plan in ((queries[0], None), (queries[2], "ARM"))
    }

    failures = []
    if not overtook[None]:
        failures.append("warm_hit_waited_for_parked_miss")
    if not overtook["ARM"]:
        failures.append("forced_hit_waited_for_parked_miss")
    return {
        "dataset": "salary",
        "build_s": round(build_s, 2),
        "corrupted": corrupt,
        "warm_hit_overtook_parked_miss": overtook[None],
        "forced_hit_overtook_parked_miss": overtook["ARM"],
        "passed": not failures,
        "failures": failures,
    }


async def _hit_overtakes_parked_miss(engine, warm, cold, plan,
                                     corrupt: bool) -> bool:
    """Park the miss ``cold`` inside ``_execute`` (holding the engine
    thread); is ``warm`` — cached under ``plan`` first — answered from the
    cache before the miss is released?"""
    import asyncio
    import threading

    from repro.serving import QueryService

    engine.enable_cache()
    engine.query(warm, plan=plan)  # populates the rules entry
    if corrupt:
        engine.serve_cached = lambda q, kind: None
    started, release = threading.Event(), threading.Event()
    try:
        async with QueryService(engine) as service:
            execute = service._execute

            def parked(flight):
                started.set()
                release.wait(30)
                return execute(flight)

            service._execute = parked
            miss = asyncio.ensure_future(service.submit(cold))
            while not started.is_set():
                await asyncio.sleep(0.005)
            try:
                hit = await asyncio.wait_for(
                    service.submit(warm, plan=plan), 5
                )
                return hit.cached and not miss.done()
            except asyncio.TimeoutError:
                return False
            finally:
                release.set()
                await miss
    finally:
        engine.__dict__.pop("serve_cached", None)
        engine.disable_cache()


def run_maintenance_selftest(
    config: dict, corrupt: bool = False, corrupt_pricing: bool = False
) -> dict:
    """Delta-store maintenance sanity: staleness, pricing, byte-identity.

    A live engine (cache + maintenance enabled) over a probe workload is
    mutated in place — a batch append plus a couple of deletes — and held
    to three structural assertions:

    * **Staleness** — the warm pass populates a cache entry for every
      probe; the append bumps the index generation, so every subsequent
      probe must MISS.  A regression that stops stamping delta mutations
      into the generation clock (serving pre-append rules from the
      cache) fails here.
    * **Pricing** — while un-folded delta exists, ``verify = inf`` must
      price **every** MIP plan of every probe at ``inf`` and so make
      every probe pick ARM; and the delta store's block of words must be
      priced exactly as more words of the operators that read it: over
      the same profile without the block, every MIP plan's
      ``eliminate`` grows by ``cands x aitem_fraction x delta_words``
      and its ``verify`` by ``n_items x delta_words`` plus the
      sub-itemset table's ANDs over the block, ARM's ``select`` by
      ``n_items x delta_words``, and no other load moves — where
      ``delta_words`` is the buffer's words for a probe whose delta view
      holds a focal record and 0 for one whose view holds none (its
      masked kernel has no delta block).  A regression
      that drops the block from the loads (making un-folded delta look
      free) fails the second.
    * **Byte-identity** — every coverage-guaranteed probe answered
      against main + delta must equal a from-scratch rebuild of the live
      records, rule for rule, support count for support count.

    ``corrupt=True`` severs the delta merge correction (the engine serves
    main-only answers while the delta still holds live records) and
    ``corrupt_pricing=True`` builds every profile with ``delta_words =
    0``; each must FAIL — a gate that cannot fail gates nothing.
    """
    import dataclasses

    import numpy as np

    from repro.core.calibration import default_probe_queries
    from repro.core.costs import _LATTICE_SHARING, CostWeights, QueryProfile
    from repro.core.engine import Colarm
    from repro.core.focal import resolve_focal
    from repro.core.mipindex import build_mip_index
    from repro.core.plans import PlanKind, execute_plan
    from repro.dataset.table import RelationalTable
    from repro.workloads.experiments import EXPERIMENTS

    spec = EXPERIMENTS[config["dataset"]]
    table = spec.make_table()
    t0 = time.perf_counter()
    # Expanded mode: all plan families agree exactly, so byte-identity
    # needs no per-plan tolerance.  Default weights suffice: every
    # assertion is structural (miss / inf / identity).
    engine = Colarm(table, primary_support=spec.primary_support, expand=True)
    build_s = time.perf_counter() - t0
    engine.enable_cache()
    # A near-unity delta fraction: no fold may land the delta mid-gate,
    # or the corrupted run would trivially pass (a gate that cannot fail
    # gates nothing).
    engine.enable_maintenance(max_delta_fraction=0.99)
    queries = default_probe_queries(
        engine.index,
        n_queries=int(config["n_queries"]),
        seed=int(config["seed"]),
    )

    for q in queries:  # warm pass: populate a cache entry per probe
        engine.query(q)
    warm_hits = sum(
        1 for q in queries if engine.cache.probe(q).kind is not None
    )

    n_append = int(config.get("n_append", 48))
    n_delete = int(config.get("n_delete", 3))
    appended = [list(map(int, row)) for row in table.data[:n_append]]
    engine.append(appended)
    engine.delete(list(range(n_delete)))
    if corrupt:
        # Sever the merge correction: delta_view() reporting "no delta"
        # makes the kernel path serve main-only answers while the delta
        # still holds live records and main tombstones.
        engine.maintenance.delta_view = lambda query: None
    stale_hits = sum(
        1 for q in queries if engine.cache.probe(q).kind is not None
    )

    floor_from_query = QueryProfile.__dict__["floor_from_query"]
    if corrupt_pricing:
        QueryProfile.floor_from_query = classmethod(
            lambda cls, *args: dataclasses.replace(
                floor_from_query.__func__(cls, *args), delta_words=0
            )
        )
    base = dict(engine.optimizer.weights.weights)
    engine.optimizer.set_weights(CostWeights({**base, "verify": float("inf")}))
    profiles = []
    inf_arm_picks = inf_mip_priced = 0
    try:
        for q in queries:
            choice = engine.optimizer.choose(q)
            choice.release()
            profiles.append(choice.profile)
            inf_arm_picks += choice.kind is PlanKind.ARM
            inf_mip_priced += all(
                math.isinf(cost)
                for kind, cost in choice.estimates.items()
                if kind is not PlanKind.ARM
            )
    finally:
        QueryProfile.floor_from_query = floor_from_query
    engine.optimizer.set_weights(CostWeights(base))
    model = engine.optimizer.cost_model
    # The deletes leave main tombstones, so every probe has a delta view;
    # its block is the buffer's words wide when the view holds a focal
    # record, and absent from the masked kernel (priced 0) otherwise.
    main_words = engine.index.stats.tidset_words
    n_items = float(sum(engine.index.stats.cardinalities))
    block_words = []
    for q in queries:
        view = resolve_focal(engine.index, q, engine.maintenance).delta
        has_block = view is not None and view.dq_size > 0
        block_words.append(engine.maintenance.buffer.words if has_block else 0)

    def priced_exactly(profile, delta_words) -> bool:
        if profile.delta_words != delta_words:
            return False
        plain = dataclasses.replace(profile, delta_words=0)
        for kind in PlanKind:
            have = model.loads(kind, profile)
            want = model.loads(kind, plain)
            if kind is PlanKind.ARM:
                want["select"] += n_items * delta_words
            else:
                want["eliminate"] *= (main_words + delta_words) / main_words
                want["verify"] += (
                    n_items + profile.qualified_fanout / _LATTICE_SHARING
                ) * delta_words
            if have.keys() != want.keys() or not all(
                math.isclose(have[name], want[name], rel_tol=1e-9)
                for name in want
            ):
                return False
        return True

    delta_priced = sum(map(priced_exactly, profiles, block_words))

    keep = np.ones(len(table.data), dtype=bool)
    keep[:n_delete] = False
    live = np.concatenate(
        [table.data[keep], np.asarray(appended, dtype=table.data.dtype)]
    )
    fresh = build_mip_index(
        RelationalTable(table.schema, live),
        primary_support=engine.maintenance.primary_support,
    )

    def rule_key(rules):
        return sorted(
            (r.antecedent, r.consequent, r.support_count,
             round(r.confidence, 12))
            for r in rules
        )

    covered = mismatches = 0
    for q in queries:
        mask = np.ones(len(live), dtype=bool)
        for attr, values in q.range_selections.items():
            mask &= np.isin(live[:, attr], list(values))
        dq_live = int(mask.sum())
        if dq_live == 0 or not engine.maintenance.coverage_guaranteed(
            q, dq_live
        ):
            continue
        covered += 1
        expected = rule_key(
            execute_plan(PlanKind.SEV, fresh, q, expand=True).rules
        )
        if rule_key(engine.query(q, use_cache=False).rules) != expected:
            mismatches += 1

    failures = []
    if warm_hits != len(queries):
        failures.append("cache_not_warm_before_append")
    if stale_hits != 0:
        failures.append("stale_cache_hit_after_append")
    if inf_mip_priced != len(queries):
        failures.append("inf_verify_left_a_mip_plan_finite")
    if inf_arm_picks != len(queries):
        failures.append("inf_verify_did_not_force_arm")
    if delta_priced != len(queries):
        failures.append("delta_words_not_priced_exactly")
    if not any(block_words):
        failures.append("no_probe_reads_the_delta_block")
    if covered == 0:
        failures.append("no_coverage_guaranteed_probes")
    if mismatches != 0:
        failures.append("maintained_answers_diverge_from_rebuild")
    return {
        "dataset": config["dataset"],
        "scenarios": len(queries),
        "build_s": round(build_s, 2),
        "corrupted": corrupt,
        "pricing_corrupted": corrupt_pricing,
        "n_append": n_append,
        "n_delete": n_delete,
        "warm_hits_before_append": warm_hits,
        "stale_hits_after_append": stale_hits,
        "mip_plans_inf_at_inf_verify": inf_mip_priced,
        "arm_picks_at_inf_verify": inf_arm_picks,
        "delta_priced_exactly": delta_priced,
        "probes_with_delta_block": sum(map(bool, block_words)),
        "identity_covered": covered,
        "identity_mismatches": mismatches,
        "passed": not failures,
        "failures": failures,
    }


def run_cluster_selftest(config: dict, corrupt: bool = False) -> dict:
    """Placement, coalescing and identity of the multi-process cluster.

    One live two-worker cluster over the salary dataset, its writer
    engine caching:

    * **Coalescing** — ``n_coalesced`` concurrent identical misses cost
      one routed execution (one request routed, one served by the
      workers), and every answer is byte-identical to the engine's.
    * **Identity** — every probe is answered byte-identically to the
      engine the cluster was built from; then, after one ingest +
      publish, at the new epoch byte-identically to an engine rebuilt
      from the grown rows — the publish emptied the router's cache, so
      this is the path a publish leaves it on.  Every probe is asked
      twice, before and after the publish: the repeat must be served by
      the router (``cached``, nothing routed) and be byte-identical too.
    * **Spread** — disjoint pairs of probes are submitted two at a time,
      concurrently and past the cache: each pair must be answered by
      two workers (the second miss placed on the idle one, not queued
      behind the first) and byte-identically to the grown engine.

    ``corrupt=True`` places every miss on the lowest live worker id
    whatever its load, so the spread check must then FAIL (a gate that
    cannot fail gates nothing).
    """
    import asyncio
    import tempfile

    import numpy as np

    from repro.cluster import ClusterConfig, ClusterService
    from repro.core.calibration import default_probe_queries
    from repro.core.engine import Colarm
    from repro.dataset.salary import salary_dataset
    from repro.dataset.table import RelationalTable

    n_coalesced = int(config["n_coalesced"])
    primary_support = float(config.get("primary_support", 0.15))
    salary = salary_dataset()
    t0 = time.perf_counter()
    engine = Colarm(salary, primary_support=primary_support)
    build_s = time.perf_counter() - t0
    # One probe more than the identity checks ask: the coalescing check
    # gets a request nothing else has cached.
    queries = default_probe_queries(
        engine.index,
        n_queries=int(config["n_queries"]) + 1,
        seed=int(config["seed"]),
    )
    lone = queries.pop()
    lone_ref = engine.query(lone, use_cache=False).rules
    refs = [engine.query(q, use_cache=False).rules for q in queries]
    grown_rows = salary.data[::5]
    grown = Colarm(
        RelationalTable(salary.schema, np.vstack([salary.data, grown_rows])),
        primary_support=primary_support,
    )
    grown_refs = [grown.query(q, use_cache=False).rules for q in queries]
    engine.enable_cache()

    async def identity_run():
        with tempfile.TemporaryDirectory() as tmp:
            cluster = ClusterService(engine, tmp, ClusterConfig(workers=2))

            def routed() -> int:
                return sum(cluster.route_counts.values())

            async def router_serves(q, ref) -> bool:
                """Ask again: the router must serve it, unrouted."""
                before = routed()
                res = await cluster.submit(q)
                return (
                    res.cached and res.worker is None and routed() == before
                    and res.epoch == cluster.publisher.epoch
                    and res.rules == ref
                )

            async with cluster:
                answers = await asyncio.gather(
                    *(cluster.submit(lone) for _ in range(n_coalesced))
                )
                stats = await cluster.worker_stats()
                coalesced = {
                    "routed": routed(),
                    "executed": sum(s["served"] for s in stats),
                    "identical": sum(res.rules == lone_ref for res in answers),
                }
                n_identical = n_repeats = 0
                for q, ref in zip(queries, refs):
                    n_identical += (await cluster.submit(q)).rules == ref
                    n_repeats += await router_serves(q, ref)
                await cluster.ingest(grown_rows.tolist(), publish=True)
                epoch = cluster.publisher.epoch
                n_published = 0
                for q, ref in zip(queries, grown_refs):
                    res = await cluster.submit(q)
                    n_published += (
                        res.epoch == epoch and not res.cached
                        and res.rules == ref
                    )
                    n_repeats += await router_serves(q, ref)
                probes = list(zip(queries, grown_refs))
                n_pairs = n_spread = n_pair_identical = 0
                for (a, ref_a), (b, ref_b) in zip(probes[0::2], probes[1::2]):
                    res_a, res_b = await asyncio.gather(
                        cluster.submit(a, use_cache=False),
                        cluster.submit(b, use_cache=False),
                    )
                    n_pairs += 1
                    n_spread += res_a.worker != res_b.worker
                    n_pair_identical += (
                        res_a.rules == ref_a and res_b.rules == ref_b
                    )
                return (coalesced, n_identical, n_published, n_repeats,
                        n_pairs, n_spread, n_pair_identical)

    real_place = ClusterService._place
    if corrupt:
        ClusterService._place = lambda self: min(self.workers)
    try:
        (coalesced, n_identical, n_published, n_repeats,
         n_pairs, n_spread, n_pair_identical) = asyncio.run(identity_run())
    finally:
        ClusterService._place = real_place

    failures = []
    if coalesced["routed"] != 1 or coalesced["executed"] != 1:
        failures.append("identical_misses_not_coalesced")
    if coalesced["identical"] != n_coalesced or n_identical != len(queries):
        failures.append("cluster_answers_diverge")
    if n_published != len(queries) or n_pair_identical != n_pairs:
        failures.append("published_answers_diverge")
    if n_repeats != 2 * len(queries):
        failures.append("repeats_not_served_by_the_router")
    if n_pairs == 0 or n_spread != n_pairs:
        failures.append("misses_queued_behind_a_busy_worker")
    return {
        "dataset": "salary",
        "scenarios": len(queries),
        "build_s": round(build_s, 2),
        "corrupted": corrupt,
        "n_coalesced": n_coalesced,
        "coalesced_routed": coalesced["routed"],
        "coalesced_executed": coalesced["executed"],
        "coalesced_identical": coalesced["identical"],
        "identity": n_identical,
        "identity_after_publish": n_published,
        "router_repeats": n_repeats,
        "pairs": n_pairs,
        "spread": n_spread,
        "passed": not failures,
        "failures": failures,
    }


_GATES = ("acc", "setup", "heap", "serving", "maintenance", "cluster")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, default=REPO_ROOT / "ci_gates.json")
    parser.add_argument(
        "--report",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "results" / "ci_gates.json",
    )
    parser.add_argument(
        "--override-weight",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="corrupt one fitted cost weight (gate self-test)",
    )
    parser.add_argument(
        "--only",
        choices=("all",) + _GATES,
        default="all",
        help="run a single gate instead of every configured one",
    )
    parser.add_argument(
        "--corrupt-admission",
        action="store_true",
        help="route cache hits through the service's engine thread; "
        "the serving self-test must then FAIL",
    )
    parser.add_argument(
        "--corrupt-maintenance",
        action="store_true",
        help="sever the delta-store merge correction (main-only answers "
        "with live delta records); the maintenance self-test must then FAIL",
    )
    parser.add_argument(
        "--corrupt-delta-pricing",
        action="store_true",
        help="build every query profile with delta_words = 0 (the delta "
        "block priced as free); the maintenance self-test must then FAIL",
    )
    parser.add_argument(
        "--corrupt-placement",
        action="store_true",
        help="place every cluster miss on the lowest worker id whatever "
        "its load; the cluster self-test must then FAIL",
    )
    parser.add_argument(
        "--corrupt-setup",
        action="store_true",
        help="collect before every calibration probe leg again (the set-up "
        "spends its time in gc); the setup gate must then FAIL",
    )
    parser.add_argument(
        "--corrupt-heap",
        action="store_true",
        help="cache list(block) - the Rule objects - instead of each rule "
        "block; the heap gate must then FAIL",
    )
    args = parser.parse_args(argv)

    overrides: dict[str, float] = {}
    for spec in args.override_weight:
        name, _, value = spec.partition("=")
        overrides[name] = float(value)

    def wanted(gate: str) -> bool:
        return args.only in ("all", gate)

    config = json.loads(args.config.read_text())
    report = run_acc_gate(config["acc"], overrides) if wanted("acc") else None
    setup_report = (
        run_setup_gate(config["setup"], corrupt=args.corrupt_setup)
        if "setup" in config and wanted("setup")
        else None
    )
    heap_report = (
        run_heap_gate(config["heap"], corrupt=args.corrupt_heap)
        if "heap" in config and wanted("heap")
        else None
    )
    serving_report = (
        run_serving_selftest(config["serving"], corrupt=args.corrupt_admission)
        if "serving" in config and wanted("serving")
        else None
    )
    maintenance_report = (
        run_maintenance_selftest(
            config["maintenance"],
            corrupt=args.corrupt_maintenance,
            corrupt_pricing=args.corrupt_delta_pricing,
        )
        if "maintenance" in config and wanted("maintenance")
        else None
    )
    cluster_report = (
        run_cluster_selftest(config["cluster"], corrupt=args.corrupt_placement)
        if "cluster" in config and wanted("cluster")
        else None
    )

    args.report.parent.mkdir(parents=True, exist_ok=True)
    full_report = dict(report) if report is not None else {}
    if setup_report is not None:
        full_report["setup_gate"] = setup_report
    if heap_report is not None:
        full_report["heap_gate"] = heap_report
    if serving_report is not None:
        full_report["serving_selftest"] = serving_report
    if maintenance_report is not None:
        full_report["maintenance_selftest"] = maintenance_report
    if cluster_report is not None:
        full_report["cluster_selftest"] = cluster_report
    args.report.write_text(json.dumps(full_report, indent=2) + "\n")

    passed = True
    if report is not None:
        passed = report["passed"]
        print(
            f"acc-gate [{report['dataset']}, {report['scenarios']} scenarios, "
            f"median of {report['calibrations']} calibrations, "
            f"build {report['build_s']}s + run {report['run_s']}s]"
        )
        for name, check in report["checks"].items():
            status = "ok  " if name not in report["failures"] else "FAIL"
            print(
                f"  {status} {name:<18} {check['value']:.3f} "
                f"{check['op']} {check['bound']}"
            )
        for plan, stats in sorted(report["residuals"].items()):
            print(
                f"  residual {plan:<9} n={stats['n']:.0f} "
                f"median log(est/meas)={stats['median_log_ratio']:+.2f} "
                f"mean|.|={stats['mean_abs_log_ratio']:.2f}"
            )
    if setup_report is not None:
        passed = passed and setup_report["passed"]
        status = "ok  " if setup_report["passed"] else "FAIL"
        print(
            f"  {status} setup-gate         "
            f"[{setup_report['dataset']}] "
            f"{setup_report['setup_s']:.2f}s"
            f" (bar {setup_report['max_setup_s']}s), gc share "
            f"{setup_report['gc_share']:.2f} over "
            f"{setup_report['collections']} collections"
            f" (bar {setup_report['max_gc_share']})"
            + (" [per-probe collect reinstated]"
               if setup_report["corrupted"] else "")
        )
    if heap_report is not None:
        passed = passed and heap_report["passed"]
        status = "ok  " if heap_report["passed"] else "FAIL"
        print(
            f"  {status} heap-gate          "
            f"{heap_report['tracked_objects']} tracked objects"
            f" (bar {heap_report['max_tracked_objects']}), longest gen-2 "
            f"pause {heap_report['longest_gen2_pause_ms']:.1f} ms over "
            f"{heap_report['full_collections']} full collections"
            f" (bar {heap_report['max_gen2_pause_ms']} ms)"
            + (" [Rule objects cached]" if heap_report["corrupted"] else "")
        )
    if serving_report is not None:
        passed = passed and serving_report["passed"]
        status = "ok  " if serving_report["passed"] else "FAIL"
        print(
            f"  {status} serving-selftest   "
            f"warm hit overtook parked miss="
            f"{serving_report['warm_hit_overtook_parked_miss']}, "
            f"forced hit overtook parked miss="
            f"{serving_report['forced_hit_overtook_parked_miss']}"
            + (" [hits routed through the engine thread]"
               if serving_report["corrupted"] else "")
        )
    if maintenance_report is not None:
        passed = passed and maintenance_report["passed"]
        status = "ok  " if maintenance_report["passed"] else "FAIL"
        covered = maintenance_report["identity_covered"]
        identical = covered - maintenance_report["identity_mismatches"]
        print(
            f"  {status} maintenance-selftest "
            f"stale hits={maintenance_report['stale_hits_after_append']}"
            f" (want 0), inf-verify ARM picks="
            f"{maintenance_report['arm_picks_at_inf_verify']}"
            f" (want {maintenance_report['scenarios']}), delta priced exactly="
            f"{maintenance_report['delta_priced_exactly']}"
            f" (want {maintenance_report['scenarios']}; "
            f"{maintenance_report['probes_with_delta_block']} with a delta "
            f"block), identity {identical}/{covered}"
            + (" [merge corrupted]" if maintenance_report["corrupted"] else "")
            + (
                " [delta pricing corrupted]"
                if maintenance_report["pricing_corrupted"]
                else ""
            )
        )
    if cluster_report is not None:
        passed = passed and cluster_report["passed"]
        status = "ok  " if cluster_report["passed"] else "FAIL"
        print(
            f"  {status} cluster-selftest   "
            f"{cluster_report['n_coalesced']} identical misses -> "
            f"{cluster_report['coalesced_routed']} routed / "
            f"{cluster_report['coalesced_executed']} executed "
            f"({cluster_report['coalesced_identical']} identical), "
            f"identity {cluster_report['identity']}/"
            f"{cluster_report['scenarios']}, "
            f"after publish {cluster_report['identity_after_publish']}/"
            f"{cluster_report['scenarios']}, router repeats "
            f"{cluster_report['router_repeats']}/"
            f"{2 * cluster_report['scenarios']}, pairs spread "
            f"{cluster_report['spread']}/{cluster_report['pairs']}"
            + (" [placement corrupted]" if cluster_report["corrupted"] else "")
        )
    if passed:
        print("ci-gates: PASS")
        return 0
    failures = list(report["failures"]) if report is not None else []
    if setup_report is not None:
        failures += setup_report["failures"]
    if heap_report is not None:
        failures += heap_report["failures"]
    if serving_report is not None:
        failures += serving_report["failures"]
    if maintenance_report is not None:
        failures += maintenance_report["failures"]
    if cluster_report is not None:
        failures += cluster_report["failures"]
    print(f"ci-gates: FAIL ({', '.join(failures)})")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
