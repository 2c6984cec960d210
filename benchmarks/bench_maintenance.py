"""MAINT — array-native ingest-while-serving vs rebuild-per-batch.

Models the workload the delta store exists for: a *Zipf-distributed
query stream* served while record batches keep arriving.  Each round
appends a batch (plus a couple of deletes), then serves a burst of
Zipf-drawn queries from a fixed pool; the same episode is priced two
ways:

* **array** — the maintained kernel path (``execute_plan`` with the
  ``MaintainedIndex`` as its ``delta``): vectorized batch append, then
  stored∩D^Q counts off the MIP bitmaps and the batched AND+popcount
  kernels with vectorized delta corrections;
* **rebuild** — no delta store at all: a from-scratch
  ``build_mip_index`` over the live records every round, then kernel
  serves against the fresh index (the freshness-equivalent strategy
  without maintenance).

Rounds end with an **untimed** fold (``recompact``): compaction runs in
the background in production and freshness never depends on it, whereas
the rebuild strategy must pay its build *before* serving fresh answers —
that asymmetry is the point of the delta store.  Before timing is
trusted, every coverage-guaranteed pool query served off main+delta is
asserted **byte-identical** (expanded mode) to the fresh rebuild of the
live records.  The acceptance bar is a >= 2x geometric-mean round
speedup of the array path over rebuild-per-batch per dataset.  Results
land in ``benchmarks/results/maintenance_speedup.csv`` plus the
top-level ``BENCH_maintenance.json``.  Run as a pytest test or
directly::

    PYTHONPATH=src python benchmarks/bench_maintenance.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import format_table, write_csv
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.plans import PlanKind, execute_plan
from repro.dataset.table import RelationalTable
from repro.workloads.experiments import EXPERIMENTS
from repro.workloads.queries import random_focal_query

from _harness import BENCH_SMOKE, paused_gc, smoke_grid

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = Path(__file__).parent.parent / "BENCH_maintenance.json"

DATASETS = smoke_grid(("chess", "mushroom"), ("mushroom",))
#: Distinct focal queries in the pool; Zipf-drawn serves per round.
N_DISTINCT = smoke_grid(8, 5)
N_ROUNDS = smoke_grid(5, 3)
BATCH = smoke_grid(48, 24)
QUERIES_PER_ROUND = smoke_grid(12, 6)
DELETES_PER_ROUND = 2
#: Zipf rank exponent: rank-k query drawn with p ∝ 1/k**ZIPF_S.
ZIPF_S = 1.1
#: Focal fractions kept large enough that the per-round delta (one
#: batch — rounds fold before the next) stays inside the coverage
#: guarantee for most pool queries.
FRACTIONS = (0.6, 0.4, 0.25)

MIN_SPEEDUP = 2.0


def _zipf_ranks(n_items: int, n_draws: int, rng) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_items + 1) ** ZIPF_S
    return rng.choice(n_items, size=n_draws, p=weights / weights.sum())


def _query_pool(spec, table, seed: int):
    """``N_DISTINCT`` distinct focal queries crossing the spec's grids."""
    pool = []
    seen = set()
    k = 0
    while len(pool) < N_DISTINCT:
        rng = np.random.default_rng(seed * 1000 + k)
        k += 1
        wq = random_focal_query(
            table,
            FRACTIONS[k % len(FRACTIONS)],
            spec.minsupps[k % len(spec.minsupps)],
            spec.minconfs[k % len(spec.minconfs)],
            rng,
        )
        if wq.query not in seen:
            seen.add(wq.query)
            pool.append(wq.query)
    return pool


def rule_key(rules):
    return sorted(
        (r.antecedent, r.consequent, r.support_count, round(r.confidence, 12))
        for r in rules
    )


def run_bench(seed: int = 13) -> dict:
    records: list[dict] = []
    identity: dict[str, dict] = {}
    for di, dataset in enumerate(DATASETS):
        spec = EXPERIMENTS[dataset]
        table = spec.make_table()
        # Hold back the ingest stream from the tail of the dataset so
        # appended batches are real records, not synthetic duplicates.
        n_stream = N_ROUNDS * BATCH
        base = RelationalTable(table.schema, table.data[:-n_stream].copy())
        stream = table.data[-n_stream:]
        pool = _query_pool(spec, base, seed + di)

        mx = MaintainedIndex(
            build_mip_index(base, primary_support=spec.primary_support)
        )
        rows = [list(map(int, r)) for r in base.data]
        alive = [True] * len(rows)
        rng = np.random.default_rng(seed + 77 + di)
        covered = mismatches = 0

        for rnd in range(N_ROUNDS):
            batch = [
                list(map(int, r))
                for r in stream[rnd * BATCH : (rnd + 1) * BATCH]
            ]
            draws = _zipf_ranks(len(pool), QUERIES_PER_ROUND, rng)
            live_tids = [t for t, ok in enumerate(alive) if ok]
            doomed = sorted(
                int(live_tids[i])
                for i in rng.choice(
                    len(live_tids), size=DELETES_PER_ROUND, replace=False
                )
            )

            # -- array path: vectorized append + kernel serves ---------
            with paused_gc():
                t0 = time.perf_counter()
                mx.append(batch)
                mx.delete(doomed)
                append_s = time.perf_counter() - t0
            rows.extend(batch)
            alive.extend([True] * len(batch))
            for tid in doomed:
                alive[tid] = False
            with paused_gc():
                t0 = time.perf_counter()
                for qi in draws:
                    execute_plan(PlanKind.SEV, mx.index, pool[qi], delta=mx)
                array_serve_s = time.perf_counter() - t0

            # -- rebuild path: fresh index over the live records -------
            live = np.asarray(
                [r for r, ok in zip(rows, alive) if ok],
                dtype=base.data.dtype,
            )
            live_table = RelationalTable(table.schema, live)
            with paused_gc():
                t0 = time.perf_counter()
                fresh = build_mip_index(
                    live_table, primary_support=spec.primary_support
                )
                rebuild_build_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                for qi in draws:
                    execute_plan(PlanKind.SEV, fresh, pool[qi])
                rebuild_serve_s = time.perf_counter() - t0

            # Byte-identity (expanded mode, where all plan families
            # agree exactly) for every distinct covered query drawn
            # this round — the bar is exactness, not approximation.
            for qi in sorted(set(int(q) for q in draws)):
                q = pool[qi]
                mask = np.ones(len(live), dtype=bool)
                for attr, values in q.range_selections.items():
                    mask &= np.isin(live[:, attr], list(values))
                dq_live = int(mask.sum())
                if dq_live == 0 or not mx.coverage_guaranteed(q, dq_live):
                    continue
                covered += 1
                expected = rule_key(
                    execute_plan(PlanKind.SEV, fresh, q, expand=True).rules
                )
                got = execute_plan(
                    PlanKind.SEV, mx.index, q, expand=True, delta=mx
                ).rules
                if rule_key(got) != expected:
                    mismatches += 1
                assert mismatches == 0, (
                    f"maintained serve diverged from rebuild: "
                    f"{dataset} round {rnd} query {qi}"
                )

            array_s = append_s + array_serve_s
            rebuild_s = rebuild_build_s + rebuild_serve_s
            records.append({
                "dataset": dataset,
                "round": rnd,
                "n_main": mx.n_main_live,
                "n_delta": mx.n_delta_records,
                "n_queries": len(draws),
                "append_s": append_s,
                "array_serve_s": array_serve_s,
                "rebuild_build_s": rebuild_build_s,
                "rebuild_serve_s": rebuild_serve_s,
                "speedup_vs_rebuild": rebuild_s / array_s,
            })

            # Fold off the hot path (background in production): the next
            # round's delta is one batch again, keeping every round
            # inside the coverage regime.
            mx.recompact()
            rows[:] = [r for r, ok in zip(rows, alive) if ok]
            alive[:] = [True] * len(rows)

        identity[dataset] = {"covered": covered, "mismatches": mismatches}
    return {"series": records, "identity": identity}


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def write_results(out: dict) -> None:
    records = out["series"]
    headers = ["dataset", "round", "main", "delta", "queries", "append_ms",
               "array_ms", "rebuild_ms", "vs_rebuild"]
    rows = [
        [r["dataset"], r["round"], r["n_main"], r["n_delta"], r["n_queries"],
         f"{r['append_s'] * 1e3:.2f}",
         f"{(r['append_s'] + r['array_serve_s']) * 1e3:.1f}",
         f"{(r['rebuild_build_s'] + r['rebuild_serve_s']) * 1e3:.1f}",
         f"{r['speedup_vs_rebuild']:.1f}x"]
        for r in records
    ]
    print("\nMAINT — array-native ingest-while-serving vs rebuild-per-batch")
    print(format_table(headers, rows))
    for dataset in DATASETS:
        cells = [r for r in records if r["dataset"] == dataset]
        ident = out["identity"][dataset]
        print(
            f"  {dataset}: geomean "
            f"{_geomean([r['speedup_vs_rebuild'] for r in cells]):.1f}x vs "
            f"rebuild-per-batch over {len(cells)} rounds; identity "
            f"{ident['covered'] - ident['mismatches']}/{ident['covered']} "
            f"covered queries byte-identical"
        )
    write_csv(RESULTS_DIR / "maintenance_speedup.csv", headers, rows)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "maintenance",
                "numpy": np.__version__,
                "zipf_s": ZIPF_S,
                "n_distinct": N_DISTINCT,
                "n_rounds": N_ROUNDS,
                "batch": BATCH,
                "queries_per_round": QUERIES_PER_ROUND,
                "smoke": BENCH_SMOKE,
                "series": records,
                "identity": out["identity"],
            },
            indent=2,
        )
        + "\n"
    )


def test_maintenance_speedup():
    out = run_bench()
    write_results(out)
    for dataset in DATASETS:
        cells = [r for r in out["series"] if r["dataset"] == dataset]
        assert cells, f"no rounds for {dataset}"
        ident = out["identity"][dataset]
        # Identity before speed: a fast wrong answer gates nothing.
        assert ident["covered"] > 0, f"no covered queries on {dataset}"
        assert ident["mismatches"] == 0, (
            f"{ident['mismatches']} diverging serves on {dataset}"
        )
        # Acceptance bar: >= 2x geomean round speedup over
        # rebuild-per-batch.
        vs_rebuild = _geomean([r["speedup_vs_rebuild"] for r in cells])
        assert vs_rebuild >= MIN_SPEEDUP, (
            f"array path {vs_rebuild:.2f}x < {MIN_SPEEDUP}x vs "
            f"rebuild-per-batch on {dataset}"
        )


if __name__ == "__main__":
    write_results(run_bench())
