"""CACHE — warm materialized-cache hits vs the best serial plan.

Models the workload the cache tier exists for: an analyst (or a serving
endpoint) firing a *Zipf-distributed repeated-query stream* over a pool
of distinct focal queries — a few hot regions absorb most requests, a
long tail is touched once or twice.  Per distinct query the bench
measures:

* **cold** — every plan executed fresh (``compare_plans`` under a paused
  collector); the baseline is the *best* serial plan, i.e. the oracle a
  perfect optimizer could reach without materialization;
* **warm** — ``engine.query`` with the cache enabled and populated: the
  request's one cache probe finds the entry and it is served, unpriced.

Every warm serve is asserted **byte-identical** to the cold execution of
the same plan family before it is timed.  The acceptance bar is a >= 5x
geometric-mean speedup of warm hit latency over the best serial plan.  Results land in ``benchmarks/results/cache_speedup.csv`` plus the
top-level ``BENCH_cache.json``.  Run as a pytest test or directly::

    PYTHONPATH=src python benchmarks/bench_cache.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import format_table, write_csv
from repro.core.plans import PlanKind
from repro.workloads.experiments import EXPERIMENTS
from repro.workloads.queries import random_focal_query

from _harness import BENCH_SMOKE, build_engine, paused_gc, smoke_grid

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = Path(__file__).parent.parent / "BENCH_cache.json"

DATASETS = smoke_grid(("chess", "mushroom"), ("mushroom",))
#: Distinct focal queries in the pool and total Zipf-drawn requests.
N_DISTINCT = smoke_grid(10, 5)
N_REQUESTS = smoke_grid(50, 20)
#: Zipf rank exponent: rank-k query drawn with p ∝ 1/k**ZIPF_S.
ZIPF_S = 1.1
FRACTIONS = (0.5, 0.3, 0.1)
REPEATS = 3


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


def run_bench(seed: int = 9) -> dict:
    records: list[dict] = []
    cache_stats: dict[str, dict] = {}
    for di, dataset in enumerate(DATASETS):
        spec = EXPERIMENTS[dataset]
        engine = build_engine(spec)
        pool = _query_pool(spec, engine.table, seed + di)

        # Cold baselines: every plan fresh, best serial time per query.
        cold = []
        for q in pool:
            with paused_gc():
                results = engine.compare_plans(q)
            best_kind = min(results, key=lambda k: results[k].elapsed)
            cold.append({
                "best_s": results[best_kind].elapsed,
                "best_plan": best_kind,
                "mip_rules": results[PlanKind.SSVS].rules,
                "arm_rules": results[PlanKind.ARM].rules,
                "dq_size": results[best_kind].dq_size,
            })

        # Warm phase: enable + populate, then serve the Zipf stream.
        engine.enable_cache()
        for q in pool:
            outcome = engine.query(q)
            assert not outcome.cached  # first touch is always a miss
        rng = np.random.default_rng(seed + 77 + di)
        ranks = _zipf_ranks(len(pool), N_REQUESTS, rng)
        warm_best = [float("inf")] * len(pool)
        for qi in ranks:
            q = pool[qi]
            with paused_gc():
                start = time.perf_counter()
                outcome = engine.query(q)
                elapsed = time.perf_counter() - start
            # Byte-identical to the cold execution of the same family —
            # the bar is exactness, not approximation.
            expected = (
                cold[qi]["arm_rules"]
                if outcome.plan is PlanKind.ARM
                else cold[qi]["mip_rules"]
            )
            assert outcome.rules == expected, (
                f"cache served diverging rules: {dataset} query {qi}"
            )
            assert outcome.cached, (
                f"warm repeat not served from cache: {dataset} query {qi}"
            )
            warm_best[qi] = min(warm_best[qi], elapsed)

        for qi, q in enumerate(pool):
            if not np.isfinite(warm_best[qi]):
                continue  # tail query never drawn by the Zipf stream
            records.append({
                "dataset": dataset,
                "minsupp": q.minsupp,
                "minconf": q.minconf,
                "dq_size": cold[qi]["dq_size"],
                "n_rules": len(cold[qi]["mip_rules"]),
                "cold_best_plan": cold[qi]["best_plan"].value,
                "cold_best_s": cold[qi]["best_s"],
                "warm_hit_s": warm_best[qi],
                "speedup": cold[qi]["best_s"] / warm_best[qi],
            })
        cache_stats[dataset] = engine.cache.stats.as_dict()
    return {"series": records, "cache_stats": cache_stats}


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def write_results(out: dict) -> None:
    records = out["series"]
    headers = ["dataset", "minsupp", "minconf", "dq_size", "n_rules",
               "cold_plan", "cold_ms", "warm_ms", "speedup"]
    rows = [
        [r["dataset"], r["minsupp"], r["minconf"], r["dq_size"], r["n_rules"],
         r["cold_best_plan"], f"{r['cold_best_s'] * 1e3:.2f}",
         f"{r['warm_hit_s'] * 1e3:.3f}", f"{r['speedup']:.1f}x"]
        for r in records
    ]
    print("\nCACHE — warm materialized-cache hits vs the best serial plan")
    print(format_table(headers, rows))
    for dataset in DATASETS:
        cells = [r["speedup"] for r in records if r["dataset"] == dataset]
        print(
            f"  {dataset}: geomean {_geomean(cells):.1f}x over {len(cells)} "
            "hot queries"
        )
    write_csv(RESULTS_DIR / "cache_speedup.csv", headers, rows)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "cache",
                "numpy": np.__version__,
                "zipf_s": ZIPF_S,
                "n_distinct": N_DISTINCT,
                "n_requests": N_REQUESTS,
                "smoke": BENCH_SMOKE,
                "series": records,
                "cache_stats": out["cache_stats"],
            },
            indent=2,
        )
        + "\n"
    )


def test_cache_speedup():
    out = run_bench()
    write_results(out)
    # Acceptance bar: warm cache-hit latency >= 5x faster than the best
    # serial plan per dataset (geometric mean over the hot queries of the
    # Zipf stream; byte-identical serves asserted per request above).
    for dataset in DATASETS:
        cells = [r["speedup"] for r in out["series"] if r["dataset"] == dataset]
        assert cells, f"no cells for {dataset}"
        geomean = _geomean(cells)
        assert geomean >= 5.0, (
            f"warm cache speedup {geomean:.2f}x < 5x on {dataset}"
        )


if __name__ == "__main__":
    write_results(run_bench())
