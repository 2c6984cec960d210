"""The ``colarm`` command-line interface.

Wraps the offline and online phases for shell use::

    colarm build data.csv index.npz --primary-support 0.1 --calibrate 6
    colarm info index.npz
    colarm query index.npz "REPORT LOCALIZED ASSOCIATION RULES FROM d \
        WHERE RANGE region = (r1) HAVING minsupport = 0.4 AND minconfidence = 0.8;"
    colarm plans index.npz "<same query>"     # run all six plans
    colarm explain index.npz "<same query>"   # cost-model ranking only
    colarm suggest index.npz                  # thresholds + focal subsets

Exit status is 0 on success, 2 on usage/data errors (with a message on
stderr).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.reporting import format_table
from repro.core.calibration import calibrate, default_probe_queries
from repro.core.engine import Colarm
from repro.core.mipindex import build_mip_index
from repro.core.parser import parse_query
from repro.core.paramsuggest import suggest_minconf, suggest_minsupp, suggest_ranges
from repro.core.persistence import load_index, save_index
from repro.core.plans import PlanKind, execute_plan, plan_from_name
from repro.dataset.loaders import load_csv
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colarm",
        description="COLARM: online localized association rule mining",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="offline phase: CSV -> MIP-index file")
    build.add_argument("csv", help="input CSV of value labels (with header)")
    build.add_argument("index", help="output index file (.npz)")
    build.add_argument("--primary-support", type=float, default=0.1,
                       help="the POQM primary support floor (default 0.1)")
    build.add_argument("--calibrate", type=int, default=0, metavar="N",
                       help="fit cost weights from N probe queries")

    info = sub.add_parser("info", help="summarize an index file")
    info.add_argument("index")

    query = sub.add_parser("query", help="answer one localized mining query")
    query.add_argument("index")
    query.add_argument("text", help="REPORT LOCALIZED ASSOCIATION RULES ...")
    query.add_argument("--plan", default=None,
                       help="force a plan (S-E-V, S-VS, SS-E-V, SS-VS, "
                            "SS-E-U-V, ARM) instead of the optimizer")
    query.add_argument("--expand", action="store_true",
                       help="expand to all locally frequent itemsets")
    query.add_argument("--limit", type=int, default=50,
                       help="max rules to print (default 50)")

    plans = sub.add_parser("plans", help="execute all six plans and compare")
    plans.add_argument("index")
    plans.add_argument("text")

    explain = sub.add_parser("explain", help="cost-model ranking for a query")
    explain.add_argument("index")
    explain.add_argument("text")

    suggest = sub.add_parser("suggest",
                             help="suggest thresholds and focal subsets")
    suggest.add_argument("index")
    suggest.add_argument("--qualify-fraction", type=float, default=0.25)
    suggest.add_argument("--top-k", type=int, default=5)

    simpson = sub.add_parser(
        "simpson", help="rules that flip between global and local context"
    )
    simpson.add_argument("index")
    simpson.add_argument("text", help="the localized query defining D^Q")
    simpson.add_argument("--margin", type=float, default=0.05,
                         help="min confidence gap to report (default 0.05)")
    simpson.add_argument("--limit", type=int, default=10)

    rank = sub.add_parser(
        "rank", help="answer a query and rank its rules by a measure"
    )
    rank.add_argument("index")
    rank.add_argument("text")
    rank.add_argument("--measure", default="kulczynski",
                      help="lift, cosine, kulczynski, jaccard, ... "
                           "(default kulczynski)")
    rank.add_argument("--top-k", type=int, default=10)

    def add_serving_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes; > 1 spawns the "
                            "mmap-shared cluster, misses placed on the "
                            "least-loaded worker (default 1: single "
                            "in-process service)")
        p.add_argument("--cluster-dir", default=None,
                       help="snapshot directory for the cluster's epoch "
                            "publishes (default: a temporary directory)")
        p.add_argument("--max-pending", type=int, default=64,
                       help="bound on queued cache misses of the "
                            "single-process service (--workers 1); past "
                            "it a request is shed (default 64)")
        p.add_argument("--no-cache", action="store_true",
                       help="serve without the materialized rule cache")

    serve = sub.add_parser(
        "serve",
        help="line-oriented query service: one query per stdin line, "
             "one JSON response per stdout line",
    )
    serve.add_argument("index")
    add_serving_args(serve)

    replay = sub.add_parser(
        "replay",
        help="run a workload file (one query per line) through the "
             "service concurrently and report latency/throughput",
    )
    replay.add_argument("index")
    replay.add_argument("workload", help="file of queries, one per line "
                                         "('-' for stdin)")
    replay.add_argument("--limit", type=int, default=5,
                        help="max rules to print per response (default 5)")
    add_serving_args(replay)

    ingest = sub.add_parser(
        "ingest",
        help="append records to an index through the array-native delta "
             "store (no rebuild on the hot path; a background recompaction "
             "folds the delta when it outgrows its bound, and the rest is "
             "folded before the index is saved)",
    )
    ingest.add_argument("index", help="index file (.npz) to ingest into")
    ingest.add_argument("records",
                        help="file of records, one per line of comma-"
                             "separated value labels in schema order "
                             "('-' for stdin)")
    ingest.add_argument("--batch-size", type=int, default=256,
                        help="records per vectorized append (default 256)")
    ingest.add_argument("--max-delta-fraction", type=float, default=0.1,
                        help="delta size bound triggering a background "
                             "recompaction (default 0.1)")
    ingest.add_argument("--out", default=None,
                        help="write the maintained state here instead of "
                             "updating the input file in place")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"colarm: error: {exc}", file=sys.stderr)
        return 2


def _cmd_build(args: argparse.Namespace) -> int:
    table = load_csv(args.csv)
    index = build_mip_index(table, primary_support=args.primary_support)
    weights = None
    if args.calibrate > 0:
        probes = default_probe_queries(index, n_queries=args.calibrate)
        report = calibrate(index, probes)
        weights = report.weights
        print(f"calibrated on {report.n_runs} probe runs "
              f"(RMS residual {report.residual * 1000:.2f} ms)")
    save_index(index, args.index, weights=weights)
    print(
        f"indexed {table.n_records} records x {table.n_attributes} attributes: "
        f"{index.n_mips} closed frequent itemsets at primary support "
        f"{args.primary_support:.0%} -> {args.index}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    index, weights = load_index(args.index)
    stats = index.stats
    print(f"records:            {stats.n_records}")
    print(f"attributes:         {stats.n_attributes}")
    print(f"primary support:    {index.primary_support:.2%}")
    print(f"closed itemsets:    {index.n_mips}")
    print(f"itemset lengths:    {dict(sorted(stats.length_histogram.items()))}")
    print(f"calibrated weights: {'yes' if weights else 'no'}")
    for attr in index.table.schema.attributes:
        print(f"  {attr.name}: {list(attr.values)}")
    return 0


def _load_engine(index_path: str) -> Colarm:
    index, weights = load_index(index_path)
    return Colarm.from_index(index, weights=weights)


def _cmd_query(args: argparse.Namespace) -> int:
    engine = _load_engine(args.index)
    engine.expand = bool(args.expand)
    plan = plan_from_name(args.plan) if args.plan else None
    outcome = engine.query(args.text, plan=plan)
    print(
        f"focal subset: {outcome.dq_size} records; plan {outcome.plan.value} "
        f"({outcome.chosen_by}); {outcome.n_rules} rules in "
        f"{outcome.elapsed * 1000:.1f} ms"
    )
    for rule in outcome.rules[: args.limit]:
        print("  " + rule.render(engine.schema))
    if outcome.n_rules > args.limit:
        print(f"  ... and {outcome.n_rules - args.limit} more")
    return 0


def _cmd_plans(args: argparse.Namespace) -> int:
    engine = _load_engine(args.index)
    parsed = parse_query(args.text, engine.schema)
    choice = engine.choose_plan(parsed.query)
    rows = []
    for kind in PlanKind:
        result = execute_plan(kind, engine.index, parsed.query)
        rows.append(
            [
                kind.value,
                f"{result.elapsed * 1000:.1f}",
                f"{choice.bound(kind)}{choice.estimates[kind] * 1000:.1f}",
                result.n_rules,
                "<-- optimizer" if kind is choice.kind else "",
            ]
        )
    print(format_table(
        ["plan", "measured ms", "estimated ms", "rules", ""], rows
    ))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    engine = _load_engine(args.index)
    print(engine.choose_plan(args.text).explain())
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    index, _ = load_index(args.index)
    minsupp = suggest_minsupp(index, qualify_fraction=args.qualify_fraction)
    minconf = suggest_minconf(index, target_fraction=args.qualify_fraction)
    print(f"suggested minsupport  = {minsupp:.3f}")
    print(f"suggested minconfidence = {minconf:.3f}")
    print("promising focal subsets:")
    for suggestion in suggest_ranges(index, minsupp=minsupp, top_k=args.top_k):
        print("  " + suggestion.describe(index.table.schema))
    return 0


def _cmd_simpson(args: argparse.Namespace) -> int:
    from repro.analysis.simpson import find_rule_flips, find_vanishing_rules
    from repro.core.focal import resolve_focal

    engine = _load_engine(args.index)
    query = parse_query(args.text, engine.schema).query
    emerging = find_rule_flips(engine.index, query, margin=args.margin)
    vanishing = find_vanishing_rules(
        engine.index, query, global_minsupp=query.minsupp, margin=args.margin
    )
    focus = resolve_focal(engine.index, query)
    print(f"focal subset: {focus.dq_size} records — "
          f"{len(emerging)} emerging, {len(vanishing)} vanishing rules "
          f"(margin {args.margin:.2f})")
    for title, flips in (("EMERGING", emerging), ("VANISHING", vanishing)):
        print(f"\n{title}:")
        for flip in flips[: args.limit]:
            print(
                f"  {flip.rule.render(engine.schema)}  "
                f"[global conf {flip.global_confidence:.2f} -> "
                f"local {flip.local_confidence:.2f}]"
            )
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    from repro.analysis.ranking import rank_rules
    from repro.core.focal import resolve_focal

    engine = _load_engine(args.index)
    query = parse_query(args.text, engine.schema).query
    outcome = engine.query(query)
    dq = resolve_focal(engine.index, query).dq
    ranked = rank_rules(engine.index, outcome.rules, dq,
                        measure=args.measure, top_k=args.top_k)
    print(f"{outcome.n_rules} rules; top {len(ranked)} by {args.measure}:")
    for rule, score in ranked:
        print(f"  {score:8.3f}  {rule.render(engine.schema)}")
    return 0


def _make_service(args: argparse.Namespace):
    """The service behind ``colarm serve`` / ``replay`` — in process, or
    the cluster with ``--workers N`` — plus the context that keeps the
    cluster's snapshot directory alive (a no-op context otherwise)."""
    import contextlib
    import tempfile

    from repro.cluster import ClusterConfig, ClusterService
    from repro.serving import QueryService, ServingConfig

    engine = _load_engine(args.index)
    if not args.no_cache:
        engine.enable_cache()
    if args.workers <= 1:
        config = ServingConfig(max_pending=args.max_pending)
        return QueryService(engine, config), contextlib.nullcontext()
    config = ClusterConfig(workers=args.workers)
    if args.cluster_dir is not None:
        return ClusterService(engine, args.cluster_dir, config), \
            contextlib.nullcontext()
    tmp = tempfile.TemporaryDirectory(prefix="colarm-cluster-")
    return ClusterService(engine, tmp.name, config), tmp


def _where(served) -> dict:
    """Where a cluster answer was served — its ``worker`` (``None``: the
    router's cache) and ``epoch``; nothing for an in-process one."""
    return {
        name: getattr(served, name) for name in ("worker", "epoch")
        if hasattr(served, name)
    }


def _response_json(served, engine: Colarm, limit: int | None = None) -> str:
    import json

    rules = served.rules if limit is None else served.rules[:limit]
    return json.dumps({
        "ok": True,
        "plan": served.plan.value,
        "n_rules": len(served.rules),
        "rules": [rule.render(engine.schema) for rule in rules],
        "trace": served.trace.as_dict(),
        **_where(served),
    })


def _cmd_serve(args: argparse.Namespace) -> int:
    """Line-oriented service loop: stdin queries -> stdout JSON responses.

    Requests are read and submitted as they arrive and answered in
    completion order (each response carries its request line number), so
    cache hits overtaking queued misses and coalescing are observable
    from a shell pipe.  A line that is shed, fails, or does not parse
    gets an ``{"ok": false, ...}`` response naming the error.  EOF drains
    in-flight requests and prints the stats snapshot to stderr.
    """
    import asyncio
    import json

    from repro.errors import QueryError, ServiceError

    service, directory = _make_service(args)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        pending: set[asyncio.Task] = set()

        async def one(line_no: int, text: str) -> None:
            try:
                served = await service.submit(text)
                payload = json.loads(_response_json(served, service.engine))
                payload["line"] = line_no
                print(json.dumps(payload), flush=True)
            except (ServiceError, QueryError) as exc:
                print(json.dumps({
                    "ok": False, "line": line_no,
                    "error": type(exc).__name__, "message": str(exc),
                }), flush=True)

        async with service:
            line_no = 0
            while True:
                line = await loop.run_in_executor(None, sys.stdin.readline)
                if not line:
                    break
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                line_no += 1
                task = asyncio.ensure_future(one(line_no, text))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending)
            print(json.dumps(service.snapshot()), file=sys.stderr)

    with directory:
        asyncio.run(run())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Submit a whole workload file concurrently; print responses + stats.

    A request that is shed, fails, or does not parse is reported in its
    place; the exit status is 1 only when every request failed.
    """
    import asyncio
    import json

    from repro.errors import QueryError, ServiceError
    from repro.serving import serve_all

    if args.workload == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.workload, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    requests = [
        line.strip() for line in lines
        if line.strip() and not line.strip().startswith("#")
    ]
    if not requests:
        print("colarm: error: empty workload", file=sys.stderr)
        return 2

    service, directory = _make_service(args)

    async def run():
        async with service:
            return await serve_all(service, requests)

    with directory:
        results, snapshot = asyncio.run(run())
    schema = service.engine.schema
    n_failed = 0
    for i, res in enumerate(results, start=1):
        if isinstance(res, (ServiceError, QueryError)):
            n_failed += 1
            print(f"[{i}] {type(res).__name__}: {res}")
            continue
        worker = _where(res).get("worker")
        print(
            f"[{i}] {'' if worker is None else f'worker {worker} '}"
            f"plan {res.plan.value} "
            f"{'cached ' if res.cached else ''}"
            f"{'coalesced ' if not res.trace.leader else ''}"
            f"{res.trace.total_s * 1000:.1f} ms, "
            f"{len(res.rules)} rules"
        )
        for rule in res.rules[: args.limit]:
            print("      " + rule.render(schema))
    print(json.dumps(snapshot, indent=2))
    return 1 if n_failed == len(results) else 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream records into an index through the maintained delta store."""
    from repro.core.maintenance import MaintainedIndex
    from repro.core.persistence import (
        delta_sidecar_path,
        load_maintained,
        save_maintained,
    )
    from repro.errors import DataError

    if delta_sidecar_path(args.index).exists():
        maintained, weights = load_maintained(args.index)
        maintained.max_delta_fraction = args.max_delta_fraction
    else:
        index, weights = load_index(args.index)
        maintained = MaintainedIndex.from_index(
            index, max_delta_fraction=args.max_delta_fraction
        )
    schema = maintained.schema
    encoders = [
        {label: code for code, label in enumerate(attr.values)}
        for attr in schema.attributes
    ]

    def encode(line_no: int, line: str) -> list[int]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != schema.n_attributes:
            raise DataError(
                f"line {line_no}: {len(fields)} fields, expected "
                f"{schema.n_attributes}"
            )
        row = []
        for ai, field in enumerate(fields):
            code = encoders[ai].get(field)
            if code is None:
                raise DataError(
                    f"line {line_no}: unknown value {field!r} for attribute "
                    f"{schema.attributes[ai].name}"
                )
            row.append(code)
        return row

    if args.records == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.records, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    header = ",".join(attr.name for attr in schema.attributes)
    if lines and "".join(lines[0].split()) == "".join(header.split()):
        lines = lines[1:]  # tolerate the CSV header `colarm build` takes
    rows = [
        encode(i, line.strip())
        for i, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not rows:
        print("colarm: error: no records to ingest", file=sys.stderr)
        return 2

    def installed(generation: int) -> None:
        print(
            f"recompaction installed -> generation {generation}, "
            f"{maintained.n_main_records} main records "
            f"({maintained.last_build_s * 1000:.0f} ms in background)"
        )

    for lo in range(0, len(rows), max(args.batch_size, 1)):
        batch = rows[lo:lo + max(args.batch_size, 1)]
        maintained.append(batch)
        print(
            f"appended {len(batch)} records -> generation "
            f"{maintained.generation} ({maintained.n_delta_records} in delta)"
        )
        if maintained.fold_due and maintained.begin_recompaction():
            print(f"recompaction started (delta held "
                  f"{maintained.n_pending} mutations)")
        generation = maintained.poll_recompaction()
        if generation is not None:
            installed(generation)
    generation = maintained.recompact()
    if generation is not None:
        installed(generation)
    n_folds = maintained.n_recompactions + maintained.n_rebuilds
    out = args.out or args.index
    save_maintained(maintained, out, weights=weights)
    print(
        f"ingested {len(rows)} records: generation {maintained.generation}, "
        f"{maintained.n_main_records} main + {maintained.n_delta_records} "
        f"delta records, {n_folds} recompaction(s) -> {out}"
    )
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "info": _cmd_info,
    "simpson": _cmd_simpson,
    "rank": _cmd_rank,
    "query": _cmd_query,
    "plans": _cmd_plans,
    "explain": _cmd_explain,
    "suggest": _cmd_suggest,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
    "ingest": _cmd_ingest,
}


if __name__ == "__main__":
    sys.exit(main())
