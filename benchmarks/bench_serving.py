"""SERVING — concurrent Zipf traffic through the query service.

Models the ROADMAP's north-star workload: a burst of concurrent localized
mining requests over one shared engine, where a few hot focal regions
absorb most of the traffic (Zipf over a warm pool the cache has seen)
and a minority of requests hit cold regions (exercising in-flight
coalescing — many concurrent requests for one cold region must cost one
execution).

Three measured quantities per dataset:

* **naive sequential** — every request of the stream executed fresh,
  one after another, with no cache and no service (the per-distinct
  fresh time summed over the stream's draws): the baseline a client
  loop without the serving layer would pay;
* **served burst** — the whole stream submitted concurrently to
  :class:`repro.serving.QueryService` (cache enabled and warmed on the
  hot pool): wall-clock span, throughput, and the p50/p99 of the
  per-request latencies the service records;
* **byte-identity** — every served response is asserted identical to
  the cold ``compare_plans`` reference of its plan family before any
  number is reported.

Acceptance bars (enforced by the ``serving-gate`` CI job):
throughput >= 3x naive sequential, p50 and p99 each under an absolute
bar set against the recorded ``BENCH_serving.json`` values, and 100%
identity.
Results land in ``benchmarks/results/serving_latency.csv`` plus the
top-level ``BENCH_serving.json``.  Run as a pytest test or directly::

    PYTHONPATH=src python benchmarks/bench_serving.py
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import format_table, write_csv
from repro.core.plans import PlanKind
from repro.serving import QueryService, ServingConfig
from repro.workloads.experiments import EXPERIMENTS
from repro.workloads.queries import random_focal_query

from _harness import BENCH_SMOKE, build_engine, paused_gc, smoke_grid

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = Path(__file__).parent.parent / "BENCH_serving.json"

DATASETS = smoke_grid(("chess", "mushroom"), ("mushroom",))
#: Hot (cache-warmed) and cold distinct focal queries, and stream length.
N_WARM = smoke_grid(8, 5)
N_COLD = smoke_grid(4, 3)
N_REQUESTS = smoke_grid(400, 120)
#: Fraction of the stream drawn (Zipf) from the warm pool; the rest is
#: spread over the cold pool, so coalescing gets real concurrent fan-in.
WARM_FRACTION = 0.85
ZIPF_S = 1.1
FRACTIONS = (0.5, 0.3, 0.1)

#: Gate bars (also asserted by the serving-gate CI job).
THROUGHPUT_BAR = 3.0     # served throughput >= 3x naive sequential
#: Absolute latency bars.  The two percentiles measure different things —
#: p50 is a warm hit (answered by its cache probe on the loop thread), p99
#: a cold miss at the back of the burst — so each gets its own bar; a
#: ratio between them fails as soon as only the median improves.
#: ``BENCH_serving.json`` records p50 0.02 ms on both datasets: 5 ms
#: leaves a slow CI host 250x and is still 40x under the 213 ms the same
#: burst's median took when every hit hopped through the pool.  p99 is
#: recorded at 202 / 91 ms full-size (93 / 76 ms in a second run: it is
#: the four cold misses, and which plan calibration picks for them) and
#: measured 0.50 s on the smoke grid, whose cold queries are heavier: the
#: bars leave 2.5x / 3x.
P50_BAR_S = 0.005
P99_BAR_S = smoke_grid(0.5, 1.5)


def _zipf_ranks(n_items: int, n_draws: int, rng) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_items + 1) ** ZIPF_S
    return rng.choice(n_items, size=n_draws, p=weights / weights.sum())


def _query_pool(spec, table, seed: int, n_queries: int):
    pool = []
    seen = set()
    k = 0
    while len(pool) < n_queries:
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


def _stream(n_warm: int, n_cold: int, n_requests: int, seed: int):
    """Request stream as indices into warm pool (>=0) / cold pool (<0)."""
    rng = np.random.default_rng(seed)
    n_hot = int(round(n_requests * WARM_FRACTION))
    warm_draws = _zipf_ranks(n_warm, n_hot, rng)
    cold_draws = rng.integers(0, n_cold, size=n_requests - n_hot)
    stream = np.concatenate([warm_draws, -1 - cold_draws])
    rng.shuffle(stream)
    return stream


def run_bench(seed: int = 11) -> dict:
    records: list[dict] = []
    snapshots: dict[str, dict] = {}
    for di, dataset in enumerate(DATASETS):
        spec = EXPERIMENTS[dataset]
        engine = build_engine(spec)
        warm = _query_pool(spec, engine.table, seed + di, N_WARM)
        cold = _query_pool(spec, engine.table, seed + di + 500, N_COLD)
        cold = [q for q in cold if q not in warm][:N_COLD]
        pool = warm + cold
        stream = _stream(len(warm), len(cold), N_REQUESTS, seed + 77 + di)
        requests = [
            pool[s] if s >= 0 else pool[len(warm) + (-1 - s)] for s in stream
        ]

        # Family-aware cold references: the identity bar for every serve.
        refs = []
        for q in pool:
            with paused_gc():
                results = engine.compare_plans(q)
            refs.append({
                "mip_rules": results[PlanKind.SSVS].rules,
                "arm_rules": results[PlanKind.ARM].rules,
            })

        # Naive sequential baseline: per-distinct fresh time (no cache,
        # no service), summed over the stream's actual draws.
        fresh_s = []
        for q in pool:
            with paused_gc():
                start = time.perf_counter()
                outcome = engine.query(q, use_cache=False)
                fresh_s.append(time.perf_counter() - start)
            expected = (
                refs[pool.index(q)]["arm_rules"]
                if outcome.plan is PlanKind.ARM
                else refs[pool.index(q)]["mip_rules"]
            )
            assert outcome.rules == expected
        naive_total_s = float(sum(
            fresh_s[s if s >= 0 else len(warm) + (-1 - s)] for s in stream
        ))

        # Warm the cache on the hot pool (unmeasured), then fire the
        # whole stream concurrently through the service.
        engine.enable_cache()
        for q in warm:
            engine.query(q)

        async def burst(engine=engine, requests=requests):
            service = QueryService(engine, ServingConfig(
                max_pending=len(requests) + 1,
            ))
            async with service:
                start = time.perf_counter()
                served = await asyncio.gather(
                    *(service.submit(q) for q in requests)
                )
                span = time.perf_counter() - start
            return served, span, service.snapshot()

        served, span, snap = asyncio.run(burst())

        n_identical = 0
        for q, resp in zip(requests, served):
            qi = pool.index(q)
            expected = (
                refs[qi]["arm_rules"]
                if resp.plan is PlanKind.ARM
                else refs[qi]["mip_rules"]
            )
            assert resp.rules == expected, (
                f"served rules diverge from cold serial: {dataset} query {qi}"
            )
            n_identical += 1

        throughput = len(requests) / span
        naive_qps = len(requests) / naive_total_s
        records.append({
            "dataset": dataset,
            "n_requests": len(requests),
            "n_distinct": len(pool),
            "span_s": span,
            "throughput_qps": throughput,
            "naive_qps": naive_qps,
            "speedup": throughput / naive_qps,
            "p50_s": snap["p50_s"],
            "p99_s": snap["p99_s"],
            "tail_ratio": (
                snap["p99_s"] / snap["p50_s"] if snap["p50_s"] > 0 else 0.0
            ),
            "executions": snap["executions"],
            "coalesced": snap["coalesced"],
            "cache_short_circuits": snap["cache_short_circuits"],
            "identical": n_identical,
        })
        snapshots[dataset] = snap
    return {"series": records, "snapshots": snapshots}


def write_results(out: dict) -> None:
    records = out["series"]
    headers = ["dataset", "requests", "naive qps", "served qps", "speedup",
               "p50 ms", "p99 ms", "tail", "execs", "coalesced", "cached"]
    rows = [
        [r["dataset"], r["n_requests"], f"{r['naive_qps']:.1f}",
         f"{r['throughput_qps']:.1f}", f"{r['speedup']:.1f}x",
         f"{r['p50_s'] * 1e3:.2f}", f"{r['p99_s'] * 1e3:.1f}",
         f"{r['tail_ratio']:.1f}x", r["executions"], r["coalesced"],
         r["cache_short_circuits"]]
        for r in records
    ]
    print("\nSERVING — concurrent Zipf traffic vs naive sequential")
    print(format_table(headers, rows))
    for r in records:
        print(
            f"  {r['dataset']}: {r['identical']}/{r['n_requests']} "
            f"byte-identical; {r['executions']} executions served "
            f"{r['n_requests']} requests"
        )
    write_csv(RESULTS_DIR / "serving_latency.csv", headers, rows)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "serving",
                "numpy": np.__version__,
                "zipf_s": ZIPF_S,
                "warm_fraction": WARM_FRACTION,
                "n_requests": N_REQUESTS,
                "smoke": BENCH_SMOKE,
                "series": records,
                "snapshots": out["snapshots"],
            },
            indent=2,
        )
        + "\n"
    )


def test_serving_gate():
    out = run_bench()
    write_results(out)
    for r in out["series"]:
        # 100% byte-identity is asserted per request inside run_bench;
        # re-check the tally so a silent skip cannot pass the gate.
        assert r["identical"] == r["n_requests"], (
            f"{r['dataset']}: only {r['identical']}/{r['n_requests']} "
            f"responses verified"
        )
        assert r["speedup"] >= THROUGHPUT_BAR, (
            f"{r['dataset']}: served throughput {r['speedup']:.2f}x naive "
            f"< {THROUGHPUT_BAR}x"
        )
        assert r["p50_s"] <= P50_BAR_S, (
            f"{r['dataset']}: p50 {r['p50_s'] * 1e3:.2f} ms > "
            f"{P50_BAR_S * 1e3:.0f} ms"
        )
        assert r["p99_s"] <= P99_BAR_S, (
            f"{r['dataset']}: p99 {r['p99_s'] * 1e3:.1f} ms > "
            f"{P99_BAR_S * 1e3:.0f} ms"
        )


if __name__ == "__main__":
    write_results(run_bench())
