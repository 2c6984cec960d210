"""The repo's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                      # all workloads, both runs
    python3 benchmarks/e2e/run.py --workload fresh_grid --seed 3 --trace 1
    python3 benchmarks/e2e/run.py --repeat 5 --trace 0 --out A.json
    python3 benchmarks/e2e/run.py compare A.json B.json

With one ``--workload`` and one ``--trace`` value the last line of standard
output is the result object of the benchmark contract (``correct``,
``attempted``, ``failed``, ``metrics``).  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import os
import pickle
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # The system under test is built from this checkout's source, never from
    # a copy of the package that happens to be installed.
    sys.exit(f"{ROOT / 'src'} does not hold the repro package")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import metrics  # noqa: E402
from harness import (  # noqa: E402
    RUNNERS, FreshGrid, Part, Phase, Runner, WideCluster, host_speed,
    one_cpu, probe_sample,
)
from repro.core.persistence import load_index  # noqa: E402
from trace import Tracer  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Sizes, Workload, generate  # noqa: E402

OUT_DIR = HERE / "out"


def environment() -> dict:
    """The block every result file carries."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "popcount": "bitwise_count" if hasattr(np, "bitwise_count") else "LUT16",
    }


async def _measure(workload: Workload, sizes: Sizes, n_parts: int,
                   tracer: Tracer | None = None, corrupt: bool = False,
                   weights: dict | None = None,
                   pin: bool | None = None) -> tuple[list[Part], dict, dict]:
    """Run the first ``n_parts`` parts, each on its own freshly set-up system.

    The measured phase (not the set-up) runs on one CPU if the workload is
    ``pinned``; ``pin=False`` overrides that.

    Returns the parts, the first system's calibrated weights, and (traced
    runs) the facts only the live last system can tell.
    """
    parts: list[Part] = []
    first_weights: dict = {}
    facts: dict[str, float] = {}
    pin = workload.pinned if pin is None else pin
    for i, (lo, hi) in enumerate(workload.parts[:n_parts]):
        runner = RUNNERS[workload.name](
            workload, sizes, OUT_DIR, tracer=tracer, corrupt=corrupt,
            weights=weights if i == 0 else None,
        )
        t0 = perf_counter()
        try:
            await runner.setup()
            setup_window = (t0, perf_counter())
            with one_cpu() if pin else contextlib.nullcontext():
                phase = await runner.run(lo, hi)
            if i == 0:
                first_weights = runner.calibrated_weights()
            if tracer is not None and i == n_parts - 1:
                with tracer.suspended():
                    facts = await _live_facts(runner)
        finally:
            await runner.close()
        parts.append(Part(
            runner.setup_s, phase,
            setup_speed=host_speed(runner.setup_samples),
            run_speed=host_speed(runner.run_samples),
            setup_window=setup_window, window=runner.window,
            counts=runner.counts,
        ))
        del runner
        gc.collect()
    return parts, first_weights, facts


async def _untraced(workload: Workload, sizes: Sizes, corrupt: bool) -> dict:
    parts, _weights, _facts = await _measure(
        workload, sizes, len(workload.parts), corrupt=corrupt)
    return {"phase": Phase.merged([p.phase for p in parts]),
            "values": metrics.end_to_end(parts),
            "raw": metrics.end_to_end(parts, corrected=False),
            "setups": [p.setup_s for p in parts],
            "walls": [p.phase.wall for p in parts],
            "host_speed": [[p.setup_speed, p.run_speed] for p in parts],
            "latencies_ms": [[round(1e3 * x, 4) for x in p.phase.latencies]
                             for p in parts]}


async def _traced(workload: Workload, sizes: Sizes) -> dict:
    """The first part untraced, then the whole list under spans.  The traced
    first part adopts the untraced one's cost weights, so the two price
    plans alike and ``trace.overhead_ratio`` compares equal work.  A pinned
    workload also runs its first part once unpinned, on its own system."""
    plain, weights, _facts = await _measure(workload, sizes, 1)
    unpinned = None
    if workload.pinned:
        (unpinned,), _weights, _facts = await _measure(workload, sizes, 1, pin=False)
    tracer = Tracer().install()
    try:
        parts, _weights, facts = await _measure(
            workload, sizes, len(workload.parts), tracer=tracer, weights=weights)
    finally:
        tracer.uninstall()
    tracer.finish()
    values = metrics.per_layer(parts, workload.clients, tracer, plain[0],
                               unpinned, facts)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"trace-{workload.name}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "windows": [list(p.window) for p in parts],
                   "spans": tracer.spans}, fh)
    return {"phase": Phase.merged([p.phase for p in parts]), "values": values}


async def _live_facts(runner: Runner) -> dict[str, float]:
    """Per-layer numbers that need the live system: index sizes, the ACC
    pass (fresh_grid) and the router's public surface (wide_cluster)."""
    engines = runner.engines.values()
    facts = {
        "mipindex.n_mips": sum(e.n_mips for e in engines),
        "mipindex.index_bytes": sum(
            e.index.mip_tidset_matrix.nbytes + e.index.flat_rtree.nbytes()
            + e.table.item_matrix()[0].nbytes + e.table.data.nbytes
            for e in engines
        ),
    }
    if isinstance(runner, FreshGrid):
        facts.update(runner.accuracy_pass())
    if isinstance(runner, WideCluster):
        facts.update(await _cluster_facts(runner))
    return facts


async def _cluster_facts(runner: WideCluster) -> dict[str, float]:
    """One snapshot load done the workers' way, routing balance, worker
    RSS, and the pickled size of one response."""
    service = runner.service
    snapshot = service.snapshot()
    routed = list(snapshot["routing"].values())
    path = max(runner.directory.glob("snapshot-*.colarm.npz"))
    t0 = perf_counter()
    load_index(path, mmap_mode="r", verify="stored")
    load_s = perf_counter() - t0
    rss = await service.worker_rss()
    response = await service.submit(runner.workload.pool[0].query)
    return {
        "persistence.load_s": load_s,
        "persistence.snapshot_bytes": path.stat().st_size,
        "cluster.route_imbalance": max(routed) / (sum(routed) / len(routed)),
        "cluster.worker_unique_rss_mb": max(
            (r["unique_kb"] or 0) for r in rss) / 1024.0,
        "cluster.respawns": snapshot["respawns"],
        "cluster.response_bytes": len(pickle.dumps(response.rules)),
    }


def run_once(name: str, seed: int, seconds: float, trace: int, sizes: Sizes,
             corrupt: bool = False, quiet: bool = False) -> dict:
    """One run of one workload; returns the result record."""
    t0 = perf_counter()
    workload = generate(name, seed, seconds, sizes)
    gen_s = perf_counter() - t0
    probe_sample()  # the first probe of a process runs cold: discard it
    outcome = asyncio.run(
        _traced(workload, sizes) if trace else _untraced(workload, sizes, corrupt)
    )
    phase: Phase = outcome["phase"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "gen_s": gen_s,
        "fingerprint": workload.fingerprint(),
        "result_digest": phase.digest(),
        "attempted": phase.attempted, "failed": phase.failed,
        **metrics.unbounded(phase),
        "query_samples": len(phase.latencies),
        "measured_s": phase.wall,
        "problems": phase.problems,
        "values": outcome["values"],
        "per_op": {str(op): [n, f"{h:016x}", family]
                   for op, (n, h, family) in phase.per_op.items()},
    }
    if "setups" in outcome:
        record["setups_s"] = outcome["setups"]
        record["walls_s"] = outcome["walls"]
        record["host_speed"] = outcome["host_speed"]
        record["raw"] = outcome["raw"]
        record["latencies_ms"] = outcome["latencies_ms"]
    if not quiet:
        report(record)
    return record


def report(record: dict) -> None:
    name = record["workload"]
    n = record["query_samples"]
    print(f"== {name}  seed={record['seed']}  trace={record['trace']}  "
          f"gen_s={record['gen_s']:.3f}  measured_s={record['measured_s']:.2f}  "
          f"query_samples={n} (tail = p{metrics.tail_percentile(n):g})")
    print(f"   attempted={record['attempted']}  failed={record['failed']}  "
          f"result_digest={record['result_digest'][:16]}  "
          f"op_list={record['fingerprint'][:16]}")
    for problem in record["problems"]:
        print(f"   PROBLEM {problem}")
    values = dict(record["values"])
    if not record["trace"]:
        values.update({metric: record[metric] for metric, *_ in metrics.UNBOUNDED})
    raw = record.get("raw", {})
    for metric, value in values.items():
        shown = "-" if value is None else f"{value:.4f}"
        note = f"   (as timed: {raw[metric]:.4f})" if metric in raw else ""
        print(f"   {name:13s} {metric:32s} {shown:>14s} {metrics.UNITS[metric]}{note}")
    if "host_speed" in record:
        speeds = ", ".join(f"{a:.2f}/{b:.2f}" for a, b in record["host_speed"])
        print(f"   host speed at set-up/run of each part (1.0 = quiet "
              f"reference box): {speeds}")


def contract_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": value, "unit": metrics.UNITS[metric]}
            for metric, value in record["values"].items()
        },
    })


def summarize(records: list[dict]) -> None:
    """Median, quartiles and spread of each (metric, workload) over repeats."""
    print(f"\n{'workload':13s} {'metric':32s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}  unit")
    for name in WORKLOADS:
        mine = [r for r in records if r["workload"] == name and not r["trace"]]
        if not mine:
            continue
        columns = [(metric, unit, [r["values"][metric] for r in mine])
                   for metric, unit, *_ in metrics.END_TO_END]
        columns += [(metric, unit, [r[metric] for r in mine])
                    for metric, unit, _better in metrics.UNBOUNDED
                    if mine[0][metric] is not None]
        for metric, unit, values in columns:
            median, q1, q3, rel = metrics.spread(values)
            print(f"{name:13s} {metric:32s} {median:12.4f} {q1:12.4f} "
                  f"{q3:12.4f} {rel:8.1%}  {unit}")
        digests = {r["result_digest"] for r in mine}
        print(f"{name:13s} result digests: "
              f"{'identical' if len(digests) == 1 else 'DIFFER (see README, plan flips)'}")


def compare(path_a: str, path_b: str) -> int:
    """Apply BENCHMARK.json's bounds to two ``--out`` files (A = parent)."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    print(f"A: {a['environment']}\nB: {b['environment']}")
    print(f"{'workload':13s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    regressed = 0
    for name in WORKLOADS:
        runs_a = [r for r in a["runs"] if r["workload"] == name and not r["trace"]]
        runs_b = [r for r in b["runs"] if r["workload"] == name and not r["trace"]]
        if not runs_a or not runs_b:
            continue
        for metric, _unit, better, bound in metrics.END_TO_END:
            va = [r["values"][metric] for r in runs_a]
            vb = [r["values"][metric] for r in runs_b]
            result, worse = metrics.verdict(better, bound, va, vb)
            regressed += result == "regressed"
            print(f"{name:13s} {metric:16s} {metrics.spread(va)[0]:12.4f} "
                  f"{metrics.spread(vb)[0]:12.4f} {worse:+9.1%} {bound:6.0%}  {result}")
        for label, runs in (("A", runs_a), ("B", runs_b)):
            failed = sum(r["failed"] for r in runs)
            if failed:
                print(f"{name:13s} {label}: {failed} failed ops")
                regressed += 1
        # Answers: ops both sides answered with the same plan family must
        # carry the same rules; a family change is a legal plan flip.
        ra, rb = runs_a[0], runs_b[0]
        if ra["seed"] == rb["seed"] and ra["fingerprint"] == rb["fingerprint"]:
            flips = differ = 0
            for op, (n, h, family) in ra["per_op"].items():
                other = rb["per_op"].get(op)
                if other is None or (n, h) == tuple(other[:2]):
                    continue
                if other[2] != family:
                    flips += 1
                else:
                    differ += 1
            print(f"{name:13s} answers: {differ} differ within a plan family, "
                  f"{flips} plan-family flips")
            regressed += differ > 0
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured phase the op list is sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None,
                        choices=(0, 1), help="0: end-to-end run, 1: traced "
                        "per-layer run; default: both")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tests)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="write every run's record to this JSON file")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: drop one rule from one sampled answer")
    args = parser.parse_args(argv)

    names = args.workload or list(WORKLOADS)
    traces = [0, 1] if args.trace is None else [args.trace]
    jobs = [(name, trace) for _ in range(args.repeat) for name in names
            for trace in traces]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if len(jobs) == 1:
        (name, trace), = jobs
        records = [run_once(name, args.seed, args.seconds, trace,
                            SMOKE if args.smoke else FULL, corrupt=args.corrupt)]
    else:
        records = [_run_in_child(i, name, trace, args)
                   for i, (name, trace) in enumerate(jobs)]
    if args.repeat > 1:
        summarize(records)
    result_file = json.dumps({"environment": environment(), "runs": records})
    for path in filter(None, (args.out, OUT_DIR / "last.json")):
        Path(path).write_text(result_file)
    if len(records) == 1:
        print(contract_line(records[0]))
    return 0


def _run_in_child(i: int, name: str, trace: int, args) -> dict:
    """One run in a process of its own, as the driver starts them:
    ``peak_rss_mb`` is a high-water mark over the life of a process, so a
    run that shared one would report the largest run before it."""
    path = OUT_DIR / f"run-{os.getpid()}-{i}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", str(path)]
    command += ["--smoke"] * args.smoke + ["--corrupt"] * args.corrupt
    try:
        subprocess.run(command, check=True)
        with open(path) as fh:
            record, = json.load(fh)["runs"]
    finally:
        path.unlink(missing_ok=True)
    return record


if __name__ == "__main__":
    sys.exit(main())
