"""The metric catalogue and how each number is computed.

``END_TO_END`` and ``PER_LAYER`` are the single list of names, units and
directions; ``BENCHMARK.json`` repeats them (``test_e2e.py`` checks the two
agree) and ``README.md`` explains them.
"""

from __future__ import annotations

import math
import resource
import statistics

import numpy as np

from harness import Part, Phase
from repro.core.plans import PlanKind
from trace import Tracer

#: name, unit, better, regression bound (share of the parent's median).
#: A bound is min(0.25, max(0.05, 3 x the widest ten-seed spread seen on any
#: workload)): the contract caps it at 0.25 and wants spreads under a third
#: of it.  Widest spreads on the reference box (README.md, "Reference
#: numbers"): 8.4 % throughput, 8.2 % p50, 16 % tail, 6.5 % RSS; set-up gets
#: the cap, as the contract asks.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
]

#: End-to-end numbers printed by every ``--trace 0`` run but not bounded: a
#: bounded metric may never be 0 and must exist on every workload, and
#: ``error_rate`` is 0 on a correct run while ``fresh_grid`` and
#: ``zipf_served`` ingest nothing.
UNBOUNDED = [
    ("error_rate", "ratio", "lower"),
    ("ingest_rows_per_s", "1/s", "higher"),
]

_PLANS = [kind.value for kind in PlanKind]

#: name, unit, better.  ``*_ms`` of a layer is its *self* time summed over
#: the measured phase, per query op, unless README.md says otherwise.
PER_LAYER = [
    # set-up, all workloads -> setup_s
    ("dataset.gen_s", "s", "lower"),
    ("itemsets.mine_s", "s", "lower"),
    ("rtree.build_s", "s", "lower"),
    ("stats.gather_s", "s", "lower"),
    ("calibration.calibrate_s", "s", "lower"),
    ("mipindex.n_mips", "count", "lower"),
    ("mipindex.index_bytes", "bytes", "lower"),
    # optimizer -> query_p50_ms (fresh_grid, zipf_served hits)
    ("optimizer.choose_ms", "ms", "lower"),
    ("optimizer.profile_ms", "ms", "lower"),
    ("optimizer.extra_cost", "ratio", "lower"),
    ("optimizer.strict_accuracy", "ratio", "higher"),
    *[(f"plans.share.{plan}", "ratio", "higher") for plan in _PLANS],
    # engine core -> query_p99_ms, throughput_qps (fresh_grid; misses elsewhere)
    ("engine.glue_ms", "ms", "lower"),
    ("operators.focus_ms", "ms", "lower"),
    ("operators.search_ms", "ms", "lower"),
    ("operators.eliminate_ms", "ms", "lower"),
    ("operators.verify_ms", "ms", "lower"),
    ("operators.select_ms", "ms", "lower"),
    ("operators.arm_ms", "ms", "lower"),
    ("rtree.search_ms", "ms", "lower"),
    ("rtree.nodes_visited", "count", "lower"),
    ("kernels.and_count_ms", "ms", "lower"),
    ("kernels.and_count_calls", "count", "lower"),
    ("kernels.words_touched", "count", "lower"),
    ("kernels.project_ms", "ms", "lower"),
    ("kernels.lattice_ms", "ms", "lower"),
    ("rules.extract_ms", "ms", "lower"),
    ("rules.n_rules", "count", "lower"),
    # cache -> query_p50_ms, throughput_qps (zipf_served; stale drops: ingest_mixed)
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.lattice_hit_rate", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.stale_drops", "count", "lower"),
    ("cache.bytes", "bytes", "lower"),
    ("cache.probe_ms", "ms", "lower"),
    ("cache.hit_serve_ms", "ms", "lower"),
    ("cache.miss_serve_ms", "ms", "lower"),
    # serving -> query_p50_ms (zipf_served)
    ("serving.queue_wait_ms", "ms", "lower"),
    ("serving.execute_ms", "ms", "lower"),
    ("serving.overhead_ms", "ms", "lower"),
    ("serving.coalesced", "count", "higher"),
    ("serving.short_circuits", "count", "higher"),
    ("serving.shed", "count", "lower"),
    # maintenance -> throughput_qps, query_p99_ms (ingest_mixed)
    ("ingest.rows_per_s", "1/s", "higher"),
    ("ingest.unpinned_qps", "1/s", "higher"),
    ("ingest.unpinned_p50_ms", "ms", "lower"),
    ("ingest.unpinned_tail_ms", "ms", "lower"),
    ("maintenance.append_ms", "ms", "lower"),
    ("maintenance.delete_ms", "ms", "lower"),
    ("maintenance.recompactions", "count", "lower"),
    ("maintenance.fold_build_s", "s", "lower"),
    ("maintenance.delta_rows_mean", "count", "lower"),
    ("maintenance.install_stall_ms", "ms", "lower"),
    # persistence, cluster -> query_p50_ms, setup_s, peak_rss_mb (wide_cluster)
    ("persistence.save_s", "s", "lower"),
    ("persistence.load_s", "s", "lower"),
    ("persistence.snapshot_bytes", "bytes", "lower"),
    ("cluster.start_s", "s", "lower"),
    ("cluster.publish_s", "s", "lower"),
    ("cluster.hop_ms", "ms", "lower"),
    ("cluster.worker_total_ms", "ms", "lower"),
    ("cluster.response_bytes", "bytes", "lower"),
    ("cluster.route_imbalance", "ratio", "lower"),
    ("cluster.worker_unique_rss_mb", "MB", "lower"),
    ("cluster.respawns", "count", "lower"),
    # the trace itself
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: Counts that repeat exactly on the 1-client workloads when the plan
#: choices repeat (``plans.share.*`` tells whether they did).
EXACT_COUNTS = ("rtree.nodes_visited", "kernels.and_count_calls",
                "kernels.words_touched", "rules.n_rules")

UNITS = {name: unit for name, unit, *_ in END_TO_END + UNBOUNDED + PER_LAYER}


def tail_percentile(n: int) -> float:
    """p99 needs >= 1000 samples; below that, the highest percentile that
    still has ten samples beyond it (full-size runs always have >= 1000)."""
    if n >= 1000:
        return 99.0
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n > 20 else 50.0


def tail_ms(latencies_ms: np.ndarray) -> float:
    """The tail latency: the mean of the samples within half a percentile
    point of the tail percentile (p98.5-p99.5 for p99; 17 of 1602).

    One order statistic sits on a step wherever a class of slow requests
    makes up about 1 % of the traffic — as the queries a freshly calibrated
    optimizer mis-plans do on ``fresh_grid`` — and jumps when one sample
    crosses it: over 38 runs the plain p99 spread 16 %, this 8 %.
    """
    ordered = np.sort(latencies_ms)
    n = len(ordered)
    p = tail_percentile(n)
    lo = int(n * (p - 0.5) / 100.0)
    hi = max(lo + 1, math.ceil(n * (p + 0.5) / 100.0))
    return float(ordered[lo:hi].mean())


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB.

    Both are high-water marks over the life of the process, so a run's
    value is its own only in a process that ran nothing else: ``run.py``
    starts one process per run.  The own peak is ``VmHWM``, not
    ``ru_maxrss``: Linux seeds the latter at ``exec`` with the RSS of the
    process that launched this one (a 100 MB pytest showed as a 100 MB
    floor under an 86 MB run).
    """
    with open("/proc/self/status") as fh:
        own_kb = next(int(line.split()[1]) for line in fh
                      if line.startswith("VmHWM:"))
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + child_kb) / 1024.0


def end_to_end(parts: list[Part], corrected: bool = True) -> dict[str, float]:
    """The end-to-end metrics of one run.

    The parts are replicas — the same multiset of ops, each on its own
    freshly set-up (and calibrated) system — so throughput and the latency
    percentiles are *pooled* over them: all queries over all wall seconds,
    percentiles of all samples.  Pooling averages out what differs between
    two set-ups of the same system (``calibrate()`` is timing-based: 8 % of
    queries flip plan) and gives the tail its >= 1000 samples; it came out
    steadier than the median over parts on every workload.  ``setup_s`` is
    the median of the set-ups.

    Timings are reported at reference speed (``harness.host_speed``): each
    part's seconds are multiplied by the host speed probed through it.
    ``corrected=False`` gives the values as timed.
    """
    def speed(part: Part, attr: str) -> float:
        return getattr(part, attr) if corrected else 1.0

    latencies_ms = np.concatenate([
        np.asarray(p.phase.latencies) * 1e3 * speed(p, "run_speed")
        for p in parts
    ])
    wall = sum(p.phase.wall * speed(p, "run_speed") for p in parts)
    return {
        "setup_s": statistics.median(
            p.setup_s * speed(p, "setup_speed") for p in parts),
        "throughput_qps": len(latencies_ms) / wall,
        "query_p50_ms": float(np.median(latencies_ms)),
        "query_p99_ms": tail_ms(latencies_ms),
        "peak_rss_mb": peak_rss_mb(),
    }


def unbounded(phase: Phase) -> dict[str, float | None]:
    """The ``UNBOUNDED`` numbers of one run; ``None`` where nothing was
    ingested."""
    return {
        "error_rate": phase.failed / max(1, phase.attempted),
        "ingest_rows_per_s": (phase.mutation_rows / phase.mutation_s
                              if phase.mutation_s else None),
    }


def _mean_ms(values) -> float:
    return 1e3 * float(np.mean(values)) if len(values) else 0.0


def per_layer(
    parts: list[Part],
    clients: int,
    tracer: Tracer,
    untraced: Part,
    unpinned: Part | None,
    facts: dict[str, float],
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run.

    ``facts`` carries what only the caller could measure on the live
    systems (index sizes, the ACC pass, a snapshot load, worker RSS);
    everything else comes from the spans inside the measured windows, the
    phase records and the system's public counters.  ``untraced`` is the
    first part run without tracing, for ``trace.overhead_ratio``;
    ``unpinned`` is the same part of a pinned workload run on all CPUs.  Timings
    here are as timed, not at reference speed (only that ratio is).
    """
    phase = Phase.merged([p.phase for p in parts])
    windows = [p.window for p in parts]
    setups = [p.setup_window for p in parts]
    n_queries = max(1, len(phase.latencies))
    out = {name: 0.0 for name, *_ in PER_LAYER}
    out.update(facts)

    for name in ("dataset.gen", "itemsets.mine", "rtree.build",
                 "stats.gather", "calibration.calibrate", "cluster.start"):
        out[name + "_s"] = sum(tracer.durations(name, setups)) / len(parts)

    self_s = tracer.self_times(windows)
    per_query = {
        "optimizer.choose": "optimizer.choose_ms",
        "optimizer.profile": "optimizer.profile_ms",
        "engine.query": "engine.glue_ms",
        "operators.focus": "operators.focus_ms",
        "operators.search": "operators.search_ms",
        "operators.eliminate": "operators.eliminate_ms",
        "operators.verify": "operators.verify_ms",
        "operators.select": "operators.select_ms",
        "operators.arm": "operators.arm_ms",
        "rtree.search": "rtree.search_ms",
        "kernels.and_count": "kernels.and_count_ms",
        "kernels.project": "kernels.project_ms",
        "kernels.lattice": "kernels.lattice_ms",
        "rules.extract": "rules.extract_ms",
        "cache.probe": "cache.probe_ms",
    }
    for span, metric in per_query.items():
        out[metric] = 1e3 * self_s.get(span, 0.0) / n_queries
    for name in ("rtree.nodes_visited", "kernels.and_count_calls",
                 "kernels.words_touched"):
        out[name] = sum(p.counts[1].get(name, 0) - p.counts[0].get(name, 0)
                        for p in parts)
    out["rules.n_rules"] = phase.n_rules
    for plan in _PLANS:
        out[f"plans.share.{plan}"] = phase.plans.get(plan, 0) / n_queries

    latencies = np.asarray(phase.latencies)
    cached = np.asarray(phase.cached, dtype=bool)
    extra = phase.extra
    out["cache.hit_rate"] = float(cached.mean()) if len(cached) else 0.0
    probes = extra.get("cache_probes", 0)
    out["cache.lattice_hit_rate"] = (
        extra.get("cache_lattice_hits", 0) / probes if probes else 0.0
    )
    out["cache.evictions"] = extra.get("cache_evictions", 0)
    out["cache.stale_drops"] = extra.get("cache_stale_drops", 0)
    out["cache.bytes"] = extra.get("cache_bytes", 0)
    out["cache.hit_serve_ms"] = _mean_ms(latencies[cached])
    out["cache.miss_serve_ms"] = _mean_ms(latencies[~cached])

    if "execute_s" in extra:
        out["serving.queue_wait_ms"] = 1e3 * extra["queue_wait_s"] / n_queries
        out["serving.execute_ms"] = 1e3 * extra["execute_s"] / n_queries
        out["serving.overhead_ms"] = (
            1e3 * (latencies.sum() - extra["execute_s"]) / n_queries
        )
        out["serving.coalesced"] = extra["serving_coalesced"]
        out["serving.short_circuits"] = extra["serving_cache_short_circuits"]
        out["serving.shed"] = extra["serving_shed"]

    if phase.mutation_s:
        out["ingest.rows_per_s"] = phase.mutation_rows / phase.mutation_s
    if unpinned is not None:
        loose = end_to_end([unpinned])
        out["ingest.unpinned_qps"] = loose["throughput_qps"]
        out["ingest.unpinned_p50_ms"] = loose["query_p50_ms"]
        out["ingest.unpinned_tail_ms"] = loose["query_p99_ms"]
    out["maintenance.append_ms"] = _mean_ms(
        tracer.durations("maintenance.append", windows))
    out["maintenance.delete_ms"] = _mean_ms(
        tracer.durations("maintenance.delete", windows))
    out["maintenance.recompactions"] = extra.get("recompactions", 0)
    out["maintenance.delta_rows_mean"] = extra.get("delta_rows_mean", 0.0)
    out["maintenance.fold_build_s"] = sum(
        tracer.self_times(windows, background=True).values())
    out["maintenance.install_stall_ms"] = _mean_ms([
        duration for start, duration in tracer.install_stalls
        if any(since <= start < until for since, until in windows)
    ])

    saves = tracer.durations("persistence.save", windows)
    out["persistence.save_s"] = float(np.mean(saves)) if saves else 0.0
    publishes = tracer.durations("cluster.publish", windows)
    out["cluster.publish_s"] = float(np.mean(publishes)) if publishes else 0.0
    if "worker_total_s" in extra:
        out["cluster.worker_total_ms"] = 1e3 * extra["worker_total_s"] / n_queries
        out["cluster.hop_ms"] = (
            1e3 * (latencies.sum() - extra["worker_total_s"]) / n_queries
        )

    out["trace.coverage"] = sum(self_s.values()) / (phase.wall * clients)
    out["trace.overhead_ratio"] = (
        parts[0].phase.wall * parts[0].run_speed
        / (untraced.phase.wall * untraced.run_speed)
    )
    return out


# -- repeat / compare ---------------------------------------------------------


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) — the driver's own statistic."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return median, q1, q3, 0.0
    return median, q1, q3, (q3 - q1) / median if median else math.inf


def verdict(better: str, bound: float, parent: list[float],
            change: list[float]) -> tuple[str, float]:
    """ok / regressed / unresolved for one (metric, workload) pair, and the
    signed worsening of the medians as a share of the parent's."""
    p_median, _, _, p_spread = spread(parent)
    c_median, _, _, c_spread = spread(change)
    worse = (c_median - p_median) / p_median
    if better == "higher":
        worse = -worse
    if max(p_spread, c_spread) > bound:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse
