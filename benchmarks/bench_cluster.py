"""CLUSTER — W mmap-shared worker processes vs one in-process service.

The tentpole measurement for :mod:`repro.cluster`: a Zipf request stream
over distinct focal regions of a wide synthetic table, served two ways —

* **single** — one :class:`repro.serving.QueryService` over the engine
  in-process (the pre-cluster architecture): its one engine thread
  runs every miss, so one core mines at a time;
* **cluster** — ``W = 4`` worker processes over one published
  ``compress=False`` snapshot, each mmap-mapping the same archive; each
  miss goes to the least-loaded worker.

Every response in both runs is asserted **byte-identical** to a cold
serial reference before any number is reported.  Two gates (enforced by
the ``cluster-gate`` CI job through :func:`test_cluster_gate`):

* throughput: cluster >= 2x single — enforced only where the host can
  actually run the workers concurrently (``AVAILABLE_CPUS >= 4``;
  smaller hosts still run the identity checks and record the numbers);
* shared memory: every worker's **unique RSS right after loading the
  snapshot** (``Private_Clean + Private_Dirty`` growth since worker
  start, from ``/proc/self/smaps_rollup``) <= 25% of the snapshot file
  it maps — enforced at the full benchmark size (the smoke grid's toy
  snapshot would be dominated by the ~1.5 MB fixed Python overhead and
  is recorded unenforced).

RSS after serving the stream is also recorded, unenforced: mining
scratch is workload-dependent and exists in any architecture; the gated
number isolates what sharing the *index* via mmap saves.  Results land
in ``benchmarks/results/cluster_speedup.csv`` plus the top-level
``BENCH_cluster.json``.  Run as a pytest test or directly::

    PYTHONPATH=src python benchmarks/bench_cluster.py
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import format_table, write_csv
from repro.cluster import ClusterConfig, ClusterService, read_epoch
from repro.core.engine import Colarm
from repro.dataset.synthetic import chess_like
from repro.serving import QueryService, ServingConfig
from repro.workloads.queries import random_focal_query

from _harness import BENCH_SMOKE, paused_gc, smoke_grid

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = Path(__file__).parent.parent / "BENCH_cluster.json"

#: Wide, dense table with a high primary-support floor: few MIPs, so the
#: per-worker heap (item/MIP tidsets) stays small next to the archive.
N_RECORDS = smoke_grid(400_000, 60_000)
N_ATTRIBUTES = 12
PRIMARY_SUPPORT = 0.55
WORKERS = 4
N_DISTINCT = smoke_grid(24, 8)
N_REQUESTS = smoke_grid(72, 24)
ZIPF_S = 1.1
FRACTIONS = (0.5, 0.3, 0.1)
MINSUPP = 0.55
MINCONF = 0.7

#: Gate bars (also asserted by the cluster-gate CI job).
SPEEDUP_BAR = 2.0        # cluster throughput >= 2x single-process
RSS_BAR = 0.25           # per-worker unique RSS <= 25% of the snapshot
RSS_ENFORCED = not BENCH_SMOKE
try:  # affinity-aware: a container may see fewer CPUs than the host has
    AVAILABLE_CPUS = max(1, len(os.sched_getaffinity(0)))
except (AttributeError, OSError):  # pragma: no cover - non-Linux
    AVAILABLE_CPUS = max(1, os.cpu_count() or 1)
SPEEDUP_ENFORCED = AVAILABLE_CPUS >= WORKERS


def _query_pool(table, seed: int):
    pool, seen, k = [], set(), 0
    while len(pool) < N_DISTINCT:
        rng = np.random.default_rng(seed * 1000 + k)
        k += 1
        wq = random_focal_query(
            table, FRACTIONS[k % len(FRACTIONS)], MINSUPP, MINCONF, rng
        )
        if wq.query not in seen:
            seen.add(wq.query)
            pool.append(wq.query)
    return pool


def _stream(n_distinct: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_distinct + 1) ** ZIPF_S
    draws = rng.choice(n_distinct, size=N_REQUESTS, p=weights / weights.sum())
    # Every distinct query appears at least once, so the identity check
    # and the routing distribution cover the whole pool.
    draws[:n_distinct] = np.arange(n_distinct)
    rng.shuffle(draws)
    return draws.tolist()


def run_bench(seed: int = 23) -> dict:
    table = chess_like(
        n_records=N_RECORDS, n_attributes=N_ATTRIBUTES, seed=7
    )
    engine = Colarm(table, primary_support=PRIMARY_SUPPORT)
    pool = _query_pool(table, seed)
    stream = _stream(len(pool), seed + 77)
    requests = [pool[i] for i in stream]

    # Cold serial references: the identity bar for every serve.
    refs = []
    for q in pool:
        with paused_gc():
            refs.append(engine.query(q, use_cache=False).rules)

    # Single-process service over the same engine.
    async def single_burst():
        service = QueryService(engine, ServingConfig(
            max_pending=len(requests) + 1,
        ))
        async with service:
            start = time.perf_counter()
            served = await asyncio.gather(
                *(service.submit(q, use_cache=False) for q in requests)
            )
            span = time.perf_counter() - start
        return served, span

    with paused_gc():
        single_served, single_span = asyncio.run(single_burst())
    n_single_identical = sum(
        resp.rules == refs[i] for i, resp in
        zip(stream, single_served, strict=True)
    )

    # The cluster: publish one snapshot, fan out W mmap-shared workers.
    async def cluster_burst():
        with tempfile.TemporaryDirectory() as tmp:
            config = ClusterConfig(workers=WORKERS)
            async with ClusterService(engine, Path(tmp), config) as cluster:
                info = read_epoch(tmp)
                snapshot_bytes = info.snapshot_path(Path(tmp)).stat().st_size
                rss_cold = await cluster.worker_rss()
                start = time.perf_counter()
                served = await asyncio.gather(
                    *(cluster.submit(q, use_cache=False) for q in requests)
                )
                span = time.perf_counter() - start
                rss_warm = await cluster.worker_rss()
                stats = await cluster.worker_stats()
                snap = cluster.snapshot()
        return served, span, snapshot_bytes, rss_cold, rss_warm, stats, snap

    with paused_gc():
        (cluster_served, cluster_span, snapshot_bytes,
         rss_cold, rss_warm, worker_stats, snap) = asyncio.run(cluster_burst())
    n_cluster_identical = sum(
        resp.rules == refs[i] for i, resp in
        zip(stream, cluster_served, strict=True)
    )

    single_qps = len(requests) / single_span
    cluster_qps = len(requests) / cluster_span
    rss_ratios = [
        r["unique_kb"] * 1024 / snapshot_bytes
        for r in rss_cold if r["unique_kb"] is not None
    ]
    return {
        "n_records": N_RECORDS,
        "n_mips": engine.index.n_mips,
        "n_requests": len(requests),
        "n_distinct": len(pool),
        "snapshot_bytes": snapshot_bytes,
        "single": {
            "span_s": single_span,
            "throughput_qps": single_qps,
            "identical": n_single_identical,
        },
        "cluster": {
            "workers": WORKERS,
            "span_s": cluster_span,
            "throughput_qps": cluster_qps,
            "identical": n_cluster_identical,
            "routing": snap["routing"],
            "per_worker": [
                {"worker": s["worker"], "served": s["served"]}
                for s in worker_stats
            ],
        },
        "speedup": cluster_qps / single_qps,
        "rss": {
            "measured": bool(rss_ratios),
            "cold_unique_kb": [r["unique_kb"] for r in rss_cold],
            "after_serving_unique_kb": [r["unique_kb"] for r in rss_warm],
            "max_cold_ratio": max(rss_ratios) if rss_ratios else None,
        },
    }


def write_results(out: dict) -> None:
    headers = ["mode", "workers", "requests", "span s", "qps", "identical"]
    rows = [
        ["single", 1, out["n_requests"],
         f"{out['single']['span_s']:.2f}",
         f"{out['single']['throughput_qps']:.1f}",
         f"{out['single']['identical']}/{out['n_requests']}"],
        ["cluster", out["cluster"]["workers"], out["n_requests"],
         f"{out['cluster']['span_s']:.2f}",
         f"{out['cluster']['throughput_qps']:.1f}",
         f"{out['cluster']['identical']}/{out['n_requests']}"],
    ]
    print("\nCLUSTER — mmap-shared workers vs single-process service")
    print(format_table(headers, rows))
    print(f"  speedup: {out['speedup']:.2f}x "
          f"(bar {SPEEDUP_BAR}x, enforced={SPEEDUP_ENFORCED})")
    ratio = out["rss"]["max_cold_ratio"]
    print(f"  snapshot: {out['snapshot_bytes'] / 1e6:.1f} MB; per-worker "
          f"cold unique RSS {out['rss']['cold_unique_kb']} KB; max ratio "
          f"{ratio if ratio is None else f'{ratio:.3f}'} "
          f"(bar {RSS_BAR}, enforced={RSS_ENFORCED})")
    print(f"  routing: {out['cluster']['routing']}")
    write_csv(RESULTS_DIR / "cluster_speedup.csv", headers, rows)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "cluster",
                "numpy": np.__version__,
                "available_cpus": AVAILABLE_CPUS,
                "smoke": BENCH_SMOKE,
                "zipf_s": ZIPF_S,
                "primary_support": PRIMARY_SUPPORT,
                "gate": {
                    "min_speedup": SPEEDUP_BAR,
                    "speedup_enforced": SPEEDUP_ENFORCED,
                    "max_rss_ratio": RSS_BAR,
                    "rss_enforced": RSS_ENFORCED,
                },
                "result": out,
            },
            indent=2,
        )
        + "\n"
    )


def test_cluster_gate():
    out = run_bench()
    write_results(out)
    # Identity is unconditional: every response, both modes, any host.
    assert out["single"]["identical"] == out["n_requests"], (
        f"single: only {out['single']['identical']}/{out['n_requests']} "
        "responses byte-identical to the cold serial reference"
    )
    assert out["cluster"]["identical"] == out["n_requests"], (
        f"cluster: only {out['cluster']['identical']}/{out['n_requests']} "
        "responses byte-identical to the cold serial reference"
    )
    # Every worker took a share of the stream (a burst of concurrent
    # misses keeps every worker loaded, and least-loaded placement
    # starves none).
    assert all(n > 0 for n in out["cluster"]["routing"].values()), (
        f"a worker served nothing: {out['cluster']['routing']}"
    )
    if out["rss"]["measured"] and RSS_ENFORCED:
        assert out["rss"]["max_cold_ratio"] <= RSS_BAR, (
            f"worker unique RSS {out['rss']['max_cold_ratio']:.3f} of the "
            f"snapshot exceeds the {RSS_BAR} sharing bar"
        )
    if SPEEDUP_ENFORCED:
        assert out["speedup"] >= SPEEDUP_BAR, (
            f"cluster throughput {out['speedup']:.2f}x single-process "
            f"< {SPEEDUP_BAR}x with {WORKERS} workers"
        )


if __name__ == "__main__":
    write_results(run_bench())
