#!/usr/bin/env python
"""What planning costs, and whether a change to it moved any number.

Two jobs, both over the end-to-end benchmark's own query pools
(``benchmarks/e2e/workloads.py`` is imported, never edited), both runnable
against *any* checkout of this repository through ``--repo`` — which is
how one file measures the parent commit and the change alike::

    python tools/planning_audit.py size
    python tools/planning_audit.py size --repo /root/scratch/parent
    python tools/planning_audit.py dump here.json
    python tools/planning_audit.py dump parent.json --repo /root/scratch/parent
    python tools/planning_audit.py compare parent.json here.json
    python tools/planning_audit.py answers here_answers.json
    python tools/planning_audit.py same-answers parent_answers.json here_answers.json

``size`` — the sizing method of ISSUE 23 (``docs/performance.md``, "What
planning costs"): ``perf_counter`` wrappers around the callables a
``choose()`` is made of (no profiler, public API only), over part 0 of the
seed-1 ``fresh_grid`` op list on calibrated engines, each request answered
through ``engine.query(use_cache=False)`` as the benchmark does.  Reports
milliseconds per request for ``choose()`` and its components, and the
CHARM search (``closed_masks``) per ARM request the ARM model exists to
price.

``dump`` / ``compare`` — the exact-equality check: for every query of the
``fresh_grid``, ``zipf_served`` and ``wide_cluster`` pools, on an immutable
index at the default weights, the ``QueryProfile`` (field for field) and
the six ``estimate_all`` prices, floats written as ``float.hex`` so ``==``
means bit-identical.  ``compare`` exits 1 on the first difference.

``answers`` / ``same-answers`` — same picks, same answers: every workload
of the benchmark run through the benchmark's own ``run_once`` (seed 1,
``--trace`` 0 and 1) with ``Colarm.calibrate`` patched out as
``benchmarks/e2e/test_e2e.py`` does, so the picks are a pure function of
the inputs; records ``result_digest``, the rule count, the plan shares and
every op's ``(rules, hash, plan family)``.  ``same-answers`` lists the ops
whose family moved and exits 1 if a digest or a rule count differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent
POOLS = ("fresh_grid", "zipf_served", "wide_cluster")


def use_checkout(repo: Path) -> None:
    """Import ``repro`` and the e2e workloads from ``repo``."""
    sys.path[:0] = [str(repo / "src"), str(repo / "benchmarks" / "e2e")]


def engines_for(workload, calibrate: bool) -> dict:
    from repro.core.engine import Colarm

    engines = {}
    for name, spec in workload.tables.items():
        engine = Colarm(spec.make(), primary_support=spec.primary_support)
        if calibrate:
            engine.calibrate()
        engines[name] = engine
    return engines


# -- size ---------------------------------------------------------------------


class Stopwatch:
    """Inclusive seconds and calls per wrapped callable."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, label: str) -> bool:
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
            owner, attr, None)
        if raw is None:
            return False
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[label] += perf_counter() - t0
                self.calls[label] += 1

        self._undo.append((owner, attr, raw))
        setattr(owner, attr, kind(timed) if kind else timed)
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def size(seed: int) -> int:
    import workloads
    from repro.core import costs, focal, operators, optimizer
    from repro.core.costs import CostModel
    from repro.core.optimizer import ColarmOptimizer

    workload = workloads.generate("fresh_grid", seed, 10.0)
    engines = engines_for(workload, calibrate=True)
    lo, hi = workload.parts[0]
    ops = [workload.pool[i] for _kind, i in workload.ops[lo:hi]]

    watch = Stopwatch()
    watch.wrap(ColarmOptimizer, "choose", "choose")
    # The ARM model under whichever name this checkout gives it.
    for name in ("_model_arm_counts", "_arm_model"):
        if watch.wrap(costs, name, "arm_model"):
            break
    watch.wrap(costs, "_cardinalities", "cardinalities")
    watch.wrap(CostModel, "estimate_all", "estimate_all")
    watch.wrap(optimizer, "resolve_focal", "resolve_focal")
    watch.wrap(focal.FocalSubset, "kernel", "focus.kernel")
    watch.wrap(operators, "closed_masks", "closed_masks")

    plans: dict[str, int] = defaultdict(int)
    t0 = perf_counter()
    for pq in ops:
        out = engines[pq.engine].query(pq.query, use_cache=False)
        plans[out.plan.value] += 1
    wall = perf_counter() - t0
    watch.restore()

    n = len(ops)
    print(f"fresh_grid seed {seed} part 0: {n} requests, "
          f"{1e3 * wall / n:.3f} ms each; plans {dict(plans)}")
    for label in ("choose", "arm_model", "cardinalities", "estimate_all",
                  "resolve_focal", "focus.kernel"):
        print(f"  {label:<14} {1e3 * watch.seconds[label] / n:7.3f} ms/request"
              f"  ({watch.calls[label]} calls)")
    arm = max(watch.calls["closed_masks"], 1)
    print(f"  {'closed_masks':<14} {1e3 * watch.seconds['closed_masks'] / arm:7.3f}"
          f" ms/ARM request  ({watch.calls['closed_masks']} calls)")
    return 0


# -- dump / compare -----------------------------------------------------------


def _exact(value):
    """JSON form in which ``==`` means bit-identical."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def dump(path: str, seed: int) -> int:
    import workloads

    out: dict[str, list] = {}
    for name in POOLS:
        workload = workloads.generate(name, seed, 10.0)
        engines = engines_for(workload, calibrate=False)
        rows = []
        for pq in workload.pool:
            optimizer = engines[pq.engine].optimizer
            profile, _focus = optimizer.profile_for(pq.query)
            estimates = optimizer.cost_model.estimate_all(profile)
            rows.append({
                "profile": _exact(dataclasses.asdict(profile)),
                "estimates": {k.value: v.hex() for k, v in estimates.items()},
            })
        out[name] = rows
        print(f"{name}: {len(rows)} queries")
    Path(path).write_text(json.dumps(out))
    return 0


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    total = 0
    for name in POOLS:
        if len(a[name]) != len(b[name]):
            print(f"{name}: {len(a[name])} vs {len(b[name])} queries")
            return 1
        for i, (ra, rb) in enumerate(zip(a[name], b[name])):
            if ra != rb:
                keys = [k for k in ra["profile"]
                        if ra["profile"][k] != rb["profile"].get(k)]
                print(f"{name}[{i}] differs: profile fields {keys}, "
                      f"estimates {ra['estimates']} vs {rb['estimates']}")
                return 1
        total += len(a[name])
        print(f"{name}: {len(a[name])} profiles and estimate sets ==")
    print(f"all {total} queries bit-identical")
    return 0


# -- answers / same-answers ---------------------------------------------------


def answers(path: str, seed: int) -> int:
    import run
    from repro.core.engine import Colarm
    from workloads import FULL, WORKLOADS

    Colarm.calibrate = lambda self, *a, **k: None  # default weights
    out: dict[str, dict] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            record = run.run_once(name, seed, 10.0, trace, FULL, quiet=True)
            values = record["values"]
            out[f"{name}/trace{trace}"] = {
                "result_digest": record["result_digest"],
                "failed": record["failed"],
                "n_rules": sum(n for n, _h, _f in record["per_op"].values()),
                "shares": {k: v for k, v in values.items()
                           if k.startswith("plans.share.")},
                "per_op": record["per_op"],
            }
            print(f"{name} trace {trace}: failed {record['failed']}, "
                  f"digest {record['result_digest'][:16]}")
    Path(path).write_text(json.dumps(out))
    return 0


def same_answers(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    status = 0
    for key in a:
        ra, rb = a[key], b[key]
        moved = [op for op, (_n, _h, family) in ra["per_op"].items()
                 if rb["per_op"].get(op, [None, None, family])[2] != family]
        same = (ra["result_digest"] == rb["result_digest"]
                and ra["n_rules"] == rb["n_rules"])
        print(f"{key}: digest {'==' if same else 'DIFFERS'}, "
              f"{ra['n_rules']} vs {rb['n_rules']} rules, shares "
              f"{'==' if ra['shares'] == rb['shares'] else 'differ'}, "
              f"failed {ra['failed']}/{rb['failed']}, "
              f"{len(moved)} of {len(ra['per_op'])} ops changed plan family"
              + (f": ops {moved[:20]}" if moved else ""))
        if not same or ra["failed"] or rb["failed"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--repo", type=Path, default=HERE,
                        help="checkout to import repro and the pools from")
    common.add_argument("--seed", type=int, default=1)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("size", parents=[common])
    sub.add_parser("dump", parents=[common]).add_argument("out")
    sub.add_parser("answers", parents=[common]).add_argument("out")
    for name in ("compare", "same-answers"):
        cmp_ = sub.add_parser(name)
        cmp_.add_argument("a")
        cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    if args.command == "same-answers":
        return same_answers(args.a, args.b)
    use_checkout(args.repo.resolve())
    if args.command == "size":
        return size(args.seed)
    if args.command == "answers":
        return answers(args.out, args.seed)
    return dump(args.out, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
