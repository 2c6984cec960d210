"""Set-up, closed-loop drivers and answer checking for the four workloads.

Each :class:`Runner` drives the system only through its public API
(``Colarm``, ``QueryService``, ``ClusterService``) with default
configuration, on the fixed op list :mod:`workloads` generated.  All loops
are closed: a client sends its next request when the previous one returned.
Everything the harness does for itself between requests that is not cheap
(oracle recounts, locating delete victims, checkpoint rebuilds) runs with
the clock paused and is subtracted from the measured wall time.
"""

from __future__ import annotations

import asyncio
import copy
import os
import shutil
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from repro.cluster import ClusterService
from repro.core.engine import Colarm
from repro.dataset.table import RelationalTable
from repro.serving import QueryService
from workloads import BATCH_ROWS, Sizes, Workload

#: Query ops between two host-speed samples of a 1-client loop, and between
#: two barriers of a 2-client loop: 0.1-0.3 s of work.
PROBE_EVERY = 40
BARRIER_EVERY = 2 * PROBE_EVERY


@dataclass
class Phase:
    """What one pass over (a prefix of) the op list observed."""

    wall: float = 0.0                      # seconds, harness pauses removed
    latencies: list[float] = field(default_factory=list)   # per query op
    cached: list[bool] = field(default_factory=list)
    plans: Counter = field(default_factory=Counter)
    #: op index -> (n_rules, rules_hash, plan family)
    per_op: dict[int, tuple[int, int, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    n_rules: int = 0
    mutation_s: float = 0.0
    mutation_rows: int = 0
    #: Sums and counters a workload adds for its own layers.
    extra: dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        return oracle.result_digest(
            {op: (n, h) for op, (n, h, _family) in self.per_op.items()}
        )

    @classmethod
    def merged(cls, parts: "list[Phase]") -> "Phase":
        """The parts of one run as one record.  Sums add up, except the
        ``*_bytes`` and ``*_mean`` extras, which are levels: their mean."""
        whole = cls()
        for part in parts:
            whole.wall += part.wall
            whole.latencies += part.latencies
            whole.cached += part.cached
            whole.plans.update(part.plans)
            whole.per_op.update(part.per_op)
            whole.attempted += part.attempted
            whole.failed += part.failed
            whole.problems += part.problems
            whole.n_rules += part.n_rules
            whole.mutation_s += part.mutation_s
            whole.mutation_rows += part.mutation_rows
            for key, value in part.extra.items():
                whole.extra[key] = whole.extra.get(key, 0.0) + value
        for key in whole.extra:
            if key.endswith(("_bytes", "_mean")):
                whole.extra[key] /= len(parts)
        return whole


#: Seconds one probe sample takes on the reference box (2 vCPU, py 3.11,
#: numpy 2.4) when the host is quiet; see :func:`probe_sample`.
PROBE_REFERENCE_S = 0.0054

_PROBE_WORDS = np.random.default_rng(0).integers(
    0, 1 << 63, size=(256, 256), dtype=np.uint64
)
_PROBE_SMALL = _PROBE_WORDS[:64, :16].copy()
#: Output buffers: a probe that allocated its 0.5 MB temporaries would time
#: the allocator's state (mmap threshold, page faults), which moves with
#: what the process did before — 4.4 ms fresh, 5.4 ms after a served run.
_PROBE_OUT = np.empty_like(_PROBE_WORDS)
_PROBE_SUMS = np.empty(len(_PROBE_WORDS), dtype=np.uint64)


def probe_sample() -> float:
    """Seconds this host takes, right now, for one fixed unit of work.

    The box is a 2-vCPU guest whose speed wanders with its host: the same
    2 s of queries took 1.6-2.8 s within three minutes, in episodes of
    10-20 s, and every timing of a run moved with it (ten-run spreads of
    30 %, medians 25 % apart between two sets of runs).  So a probe that
    shares no code with the repo — half of it word-wise ANDs over 0.5 MB in
    numpy, a quarter small numpy calls bound by dispatch, a quarter integer
    arithmetic in the interpreter; nothing the garbage collector tracks — is
    sampled *between* the slices of every set-up and every measured part,
    with the clock paused, and the end-to-end timings are reported at
    reference speed: ``seconds x host_speed(samples)``.  The raw values are
    printed beside them.
    """
    t0 = perf_counter()
    for row in _PROBE_WORDS[:48]:
        np.bitwise_and(_PROBE_WORDS, row, out=_PROBE_OUT)
        _PROBE_OUT.sum(axis=1, out=_PROBE_SUMS)
    mask = _PROBE_SMALL[0]
    for _ in range(450):
        np.bitwise_and(_PROBE_SMALL, mask).sum(axis=1)
    x = 0
    for i in range(35_000):
        x += i * i
    return perf_counter() - t0


def host_speed(samples: list[float]) -> float:
    """How fast the host ran while ``samples`` were taken, 1.0 = the quiet
    reference box.  The mean with an eighth trimmed off each end: what slows
    the work between two samples slows the samples, so a mean follows the
    work better than a median does (4 % against 5.5 % left-over spread on
    4 s of fixed work), and the trim drops the sample a timer tick hit."""
    ordered = sorted(samples)
    cut = len(ordered) // 8
    kept = ordered[cut: len(ordered) - cut]
    return PROBE_REFERENCE_S * len(kept) / sum(kept)


@dataclass
class Part:
    """One part of a run: its own set-up, then its slice of the op list."""

    setup_s: float
    phase: Phase
    #: ``host_speed`` of the samples taken through the set-up and through the
    #: measured slice.
    setup_speed: float
    run_speed: float
    #: perf_counter stamps around the set-up and around the measured slice,
    #: and the tracer's counts at the ends of the slice (traced runs).
    setup_window: tuple[float, float]
    window: tuple[float, float]
    counts: tuple[dict, dict]


class Clock:
    """Wall time of a phase with the harness's own pauses taken out.

    A pause also suspends the tracer on this thread: what the harness runs
    for itself (oracle recounts, forced reference plans, checkpoint
    rebuilds) is neither timed nor recorded as the system's work.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.paused = 0.0
        self.start = perf_counter()

    @contextmanager
    def pause(self):
        t0 = perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.suspended():
                    yield
            else:
                yield
        finally:
            self.paused += perf_counter() - t0

    def elapsed(self) -> float:
        return perf_counter() - self.start - self.paused


def _family(plan: str) -> str:
    return "arm" if plan == "ARM" else "mip"


class Runner:
    """One workload against one freshly set-up system."""

    def __init__(self, workload: Workload, sizes: Sizes, out_dir: Path,
                 tracer=None, corrupt: bool = False, weights=None):
        self.workload = workload
        self.sizes = sizes
        self.out_dir = out_dir
        self.tracer = tracer
        self.corrupt = corrupt
        #: Cost weights to adopt after calibrating, per engine name.  The
        #: traced run takes the untraced run's, so both price plans alike
        #: and ``trace.overhead_ratio`` compares equal work.
        self.weights = weights
        self.engines: dict[str, Colarm] = {}
        self.phase = Phase()
        self.clock = Clock(tracer)
        #: perf_counter stamps and tracer counts at the ends of the measured
        #: phase: spans and counts outside them are set-up or warm-up.
        self.window = (0.0, 0.0)
        self.counts = ({}, {})
        #: Sampled responses awaiting the oracle: (op, pool index, rules, plan).
        self._pending: list[tuple[int, int, list, str]] = []
        #: ``probe_sample()`` values taken through the set-up and through the
        #: measured phase, and the set-up's seconds (probes taken out).
        self.setup_samples: list[float] = []
        self.run_samples: list[float] = []
        self.setup_s = 0.0

    # -- set-up ---------------------------------------------------------------

    async def setup(self) -> None:
        """Everything up to the point where the first query can be served."""
        t0 = perf_counter()
        self._probe_setup()
        self._build()
        if self.weights is not None:
            for name, engine in self.engines.items():
                engine.optimizer.set_weights(self.weights[name])
        await self._serve()
        self._probe_setup()
        self.setup_s = perf_counter() - t0 - sum(self.setup_samples)

    def _probe_setup(self) -> None:
        self.setup_samples += [probe_sample() for _ in range(3)]

    def _build(self) -> None:
        """Table generation, index build and calibration of every engine."""
        for name, spec in self.workload.tables.items():
            if self.tracer is not None:
                with self.tracer.span("dataset.gen"):
                    table = spec.make()
            else:
                table = spec.make()
            engine = Colarm(table, primary_support=spec.primary_support)
            self._probe_setup()
            engine.calibrate()
            self._probe_setup()
            self.engines[name] = engine

    async def _serve(self) -> None:
        """Start whatever fronts the engines (the cluster's workers)."""

    def calibrated_weights(self) -> dict:
        return {name: e.optimizer.weights for name, e in self.engines.items()}

    async def close(self) -> None:
        self.engines.clear()

    # -- recording ----------------------------------------------------------------

    def _request(self, op: int, pool_index: int):
        """The query object to send; under tracing a private copy bound to
        its op, so spans on other threads can be matched to it."""
        query = self.workload.pool[pool_index].query
        if self.tracer is None:
            return query
        query = copy.copy(query)
        self.tracer.bind(query, op)
        return query

    def _answered(self, op: int, pool_index: int, query, rules, plan: str,
                  cached: bool, latency: float) -> None:
        phase = self.phase
        phase.attempted += 1
        if self.tracer is not None:
            self.tracer.unbind(query)
        if op in self.workload.sample:
            if self.corrupt and rules:
                # The deliberate fault of the self-test: lose one rule.
                rules = rules[:-1]
                self.corrupt = False
            self._pending.append((op, pool_index, rules, plan))
        phase.latencies.append(latency)
        phase.cached.append(cached)
        phase.plans[plan] += 1
        phase.n_rules += len(rules)
        phase.per_op[op] = (len(rules), oracle.rules_hash(rules), _family(plan))

    def _raised(self, op: int, exc: BaseException) -> None:
        self.phase.attempted += 1
        self._fail(f"op {op}: {type(exc).__name__}: {exc}")

    def _fail(self, problem: str) -> None:
        self.phase.failed += 1
        if len(self.phase.problems) < 20:
            self.phase.problems.append(problem)

    def _begin(self) -> None:
        self.clock = Clock(self.tracer)
        counts = self.tracer.counts() if self.tracer is not None else {}
        self.counts = (counts, counts)
        self.window = (self.clock.start, self.clock.start)
        self._probe()

    def _probe(self) -> None:
        """One host-speed sample, off the clock.  Callers take it only where
        nothing of the system is running (between requests, at barriers)."""
        with self.clock.pause():
            self.run_samples.append(probe_sample())

    async def _slice(self, client) -> None:
        """Run ``client()`` once per client of the workload, up to the
        barrier where all have finished.  The time the early finishers wait
        there for the last one is the harness's, not the system's: it comes
        off the clock, so the wall counts seconds with every client busy."""
        finished: list[float] = []

        async def timed() -> None:
            await client()
            finished.append(perf_counter())

        await asyncio.gather(*(timed() for _ in range(self.workload.clients)))
        self.clock.paused += max(finished) - sum(finished) / len(finished)

    def _end(self) -> None:
        self._probe()
        self.phase.wall = self.clock.elapsed()
        self.window = (self.window[0], perf_counter())
        if self.tracer is not None:
            self.counts = (self.counts[0], self.tracer.counts())

    def _verify_pending(self, rows: np.ndarray | None = None) -> None:
        """Oracle-check the sampled responses gathered so far: recount from
        ``rows`` (default: the answering engine's own table) and compare
        with the forced basic plan of the answering family."""
        if not self._pending:
            return
        with self.clock.pause():
            for op, pool_index, rules, plan in self._pending:
                pq = self.workload.pool[pool_index]
                engine = self.engines[pq.engine]
                data = engine.table.data if rows is None else rows
                problems = oracle.recount(data, pq.query, rules)
                forced = "ARM" if plan == "ARM" else "S-E-V"
                reference = engine.query(
                    pq.query, plan=forced, use_cache=False
                ).rules
                problems += oracle.same_rules(rules, reference)
                if problems:
                    self._fail(f"op {op}: " + "; ".join(problems[:3]))
            self._pending.clear()

    async def run(self, lo: int, hi: int) -> Phase:
        """The measured phase over ``ops[lo:hi]`` (one part of the list)."""
        raise NotImplementedError

    def _ops(self, lo: int, hi: int):
        return zip(range(lo, hi), self.workload.ops[lo:hi])


# ---------------------------------------------------------------------------
# fresh_grid
# ---------------------------------------------------------------------------


class FreshGrid(Runner):
    async def run(self, lo: int, hi: int) -> Phase:
        pool = self.workload.pool
        self._begin()
        for op, (_kind, pool_index) in self._ops(lo, hi):
            if (op - lo) % PROBE_EVERY == PROBE_EVERY - 1:
                self._probe()
            engine = self.engines[pool[pool_index].engine]
            query = self._request(op, pool_index)
            t0 = perf_counter()
            try:
                out = engine.query(query, use_cache=False)
            except Exception as exc:  # noqa: BLE001 — counted as a failed op
                self._raised(op, exc)
                continue
            self._answered(op, pool_index, query, out.rules, out.plan.value,
                           out.cached, perf_counter() - t0)
        self._end()
        # The engines are immutable: the sample is checked after the clock.
        self._verify_pending()
        return self.phase

    def accuracy_pass(self) -> dict[str, float]:
        """The paper's ACC experiment on a balanced subset: run all six
        plans per query, compare the optimizer's pick with the fastest."""
        chosen_s = fastest_s = 0.0
        strict = 0
        for pool_index in self.workload.acc:
            pq = self.workload.pool[pool_index]
            engine = self.engines[pq.engine]
            choice = engine.choose_plan(pq.query)
            results = engine.compare_plans(pq.query)
            best = min(results, key=lambda kind: results[kind].elapsed)
            strict += best is choice.kind
            chosen_s += results[choice.kind].elapsed
            fastest_s += results[best].elapsed
        n = max(1, len(self.workload.acc))
        return {
            "optimizer.strict_accuracy": strict / n,
            "optimizer.extra_cost": chosen_s / fastest_s - 1.0 if fastest_s else 0.0,
        }


# ---------------------------------------------------------------------------
# zipf_served
# ---------------------------------------------------------------------------


def _cache_counters(engine: Colarm) -> dict[str, int]:
    return engine.cache.stats.as_dict()


def _cache_delta(extra: dict, before: dict, after: dict) -> None:
    """What the rule cache did during the measured phase."""
    for key in ("probes", "rule_hits", "lattice_hits", "evictions",
                "stale_drops"):
        extra["cache_" + key] = after[key] - before[key]
    extra["cache_bytes"] = after["current_bytes"]


class ZipfServed(Runner):
    def _build(self) -> None:
        super()._build()
        self.engines["served"].enable_cache(
            budget_bytes=self.sizes.zipf_cache_bytes
        )

    async def _clients(self, service: QueryService, ops, record: bool) -> None:
        feed = iter(ops)
        extra = self.phase.extra

        async def client() -> None:
            for op, pool_index in feed:
                query = self._request(op, pool_index) if record else \
                    self.workload.pool[pool_index].query
                t0 = perf_counter()
                try:
                    served = await service.submit(query)
                except Exception as exc:  # noqa: BLE001 — shed or failed
                    if record:
                        self._raised(op, exc)
                    continue
                latency = perf_counter() - t0
                if record:
                    trace = served.trace
                    extra["queue_wait_s"] = extra.get("queue_wait_s", 0.0) + trace.queue_wait_s
                    extra["execute_s"] = extra.get("execute_s", 0.0) + trace.execute_s
                    self._answered(op, pool_index, query, served.rules,
                                   served.plan.value, served.cached, latency)

        await self._slice(client)

    async def run(self, lo: int, hi: int) -> Phase:
        engine = self.engines["served"]
        service = QueryService(engine)
        await service.start()
        try:
            await self._clients(service, enumerate(self.workload.warmup), False)
            before = _cache_counters(engine)
            served_before = service.snapshot()
            ops = [(op, step[1]) for op, step in self._ops(lo, hi)]
            self._begin()
            # A barrier every few hundred milliseconds: both clients finish,
            # the host speed is sampled, both go on.
            for at in range(0, len(ops), BARRIER_EVERY):
                await self._clients(service, ops[at: at + BARRIER_EVERY], True)
                self._probe()
            self._end()
            after = _cache_counters(engine)
            snapshot = service.snapshot()
        finally:
            await service.stop()
        extra = self.phase.extra
        _cache_delta(extra, before, after)
        for key in ("coalesced", "cache_short_circuits", "shed"):
            extra["serving_" + key] = snapshot[key] - served_before[key]
        self._verify_pending()
        return self.phase


# ---------------------------------------------------------------------------
# ingest_mixed
# ---------------------------------------------------------------------------


class Mirror:
    """The harness's own copy of the live rows, kept by content.

    Delete victims are drawn from the *original* rows still alive: those
    are in the main table under every fold timing, so the harness can name
    them to the engine by a main tid of equal content (rows of equal
    content are interchangeable for mining) and the live *multiset* of rows
    — hence every answer — is the same however the background folds fall.
    """

    def __init__(self, base: np.ndarray):
        self.rows = base.copy()
        self.original = np.ones(len(base), dtype=bool)

    def append(self, rows: np.ndarray) -> None:
        self.rows = np.vstack([self.rows, rows])
        self.original = np.concatenate(
            [self.original, np.zeros(len(rows), dtype=bool)]
        )

    def draw(self, seed: int, n: int) -> np.ndarray:
        candidates = np.flatnonzero(self.original)
        return np.random.default_rng(seed).choice(candidates, size=n, replace=False)

    def tids_of(self, victims: np.ndarray, engine: Colarm) -> list[int]:
        """Live main tids of the engine whose rows equal the victims'."""
        data = engine.table.data
        dead = engine.maintenance.main_dead
        taken: set[int] = set()
        for row in self.rows[victims]:
            for tid in np.flatnonzero((data == row).all(axis=1)).tolist():
                if not (dead >> tid) & 1 and tid not in taken:
                    taken.add(tid)
                    break
            else:
                raise LookupError("no live main row equals the delete victim")
        return sorted(taken)

    def remove(self, victims: np.ndarray) -> None:
        keep = np.ones(len(self.rows), dtype=bool)
        keep[victims] = False
        self.rows = self.rows[keep]
        self.original = self.original[keep]


@contextmanager
def one_cpu():
    """Run the block, and the threads it starts, on one CPU: what a pinned
    workload's measured phase runs under (``Workload.pinned`` says why)."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class IngestMixed(Runner):
    #: Pool keys compared against the rebuilt engine at each checkpoint.
    CHECKPOINT_KEYS = 6

    def _build(self) -> None:
        super()._build()
        self.engines["mutable"].enable_cache().enable_maintenance()

    async def run(self, lo: int, hi: int) -> Phase:
        engine = self.engines["mutable"]
        maintained = engine.maintenance
        mirror = Mirror(engine.table.data)
        phase, extra = self.phase, self.phase.extra
        before = _cache_counters(engine)
        folds_before = maintained.n_recompactions + maintained.n_rebuilds
        delta_rows: list[int] = []
        self._begin()
        clock = self.clock
        for op, step in self._ops(lo, hi):
            kind = step[0]
            try:
                if kind == "query":
                    query = self._request(op, step[1])
                    t0 = perf_counter()
                    out = engine.query(query)
                    self._answered(op, step[1], query, out.rules,
                                   out.plan.value, out.cached,
                                   perf_counter() - t0)
                    self._verify_pending(mirror.rows)
                    continue
                phase.attempted += 1
                if kind == "append":
                    t0 = perf_counter()
                    engine.append(step[1])
                    phase.mutation_s += perf_counter() - t0
                    phase.mutation_rows += len(step[1])
                    mirror.append(step[1])
                elif kind == "delete":
                    with clock.pause():
                        victims = mirror.draw(step[1], BATCH_ROWS)
                        tids = mirror.tids_of(victims, engine)
                    t0 = perf_counter()
                    engine.delete(tids)
                    phase.mutation_s += perf_counter() - t0
                    phase.mutation_rows += len(tids)
                    mirror.remove(victims)
                else:  # poll
                    engine.poll_maintenance()
                    delta_rows.append(maintained.n_delta_records)
                    if not maintained.recompacting:
                        # With a fold in flight the sample would time the
                        # fold thread's hold on the GIL, not the host.
                        self._probe()
                    if op in self.workload.checkpoints:
                        with clock.pause():
                            self._checkpoint(op, engine, mirror)
            except Exception as exc:  # noqa: BLE001 — counted as a failed op
                if kind == "query":
                    self._raised(op, exc)
                else:
                    self._fail(f"op {op} ({kind}): {type(exc).__name__}: {exc}")
        self._end()
        _cache_delta(extra, before, _cache_counters(engine))
        extra["recompactions"] = (
            maintained.n_recompactions + maintained.n_rebuilds - folds_before
        )
        extra["delta_rows_mean"] = float(np.mean(delta_rows)) if delta_rows else 0.0
        return phase

    def _checkpoint(self, op: int, engine: Colarm, mirror: Mirror) -> None:
        """The live engine (main + delta + tombstones) against an engine
        rebuilt from the harness's rows: same rules, both plan families."""
        if len(mirror.rows) != engine.maintenance.n_records:
            self._fail(f"checkpoint at op {op}: engine holds "
                       f"{engine.maintenance.n_records} live rows, harness "
                       f"{len(mirror.rows)}")
        rebuilt = Colarm(
            RelationalTable(engine.schema, mirror.rows.copy()),
            primary_support=engine.index.primary_support,
        )
        for pq in self.workload.pool[: self.CHECKPOINT_KEYS]:
            for plan in ("S-E-V", "ARM"):
                live = engine.query(pq.query, plan=plan, use_cache=False).rules
                fresh = rebuilt.query(pq.query, plan=plan).rules
                problems = oracle.same_rules(live, fresh)
                if problems:
                    self._fail(f"checkpoint at op {op}, {plan}: {problems[0]}")


# ---------------------------------------------------------------------------
# wide_cluster
# ---------------------------------------------------------------------------


class WideCluster(Runner):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.service: ClusterService | None = None
        self.directory: Path | None = None

    def _build(self) -> None:
        super()._build()
        self.engines["wide"].enable_cache().enable_maintenance()

    async def _serve(self) -> None:
        engine = self.engines["wide"]
        self.directory = self.out_dir / f"cluster-{id(self):x}"
        self.directory.mkdir(parents=True, exist_ok=True)
        self.service = ClusterService(engine, self.directory)
        await self.service.start()

    async def close(self) -> None:
        if self.service is not None:
            await self.service.stop()
            self.service = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
        await super().close()

    async def _segment(self, ops: list[tuple[int, int]], epoch_floor: int) -> None:
        service, extra = self.service, self.phase.extra
        feed = iter(ops)

        async def client() -> None:
            for op, pool_index in feed:
                query = self._request(op, pool_index)
                t0 = perf_counter()
                try:
                    res = await service.submit(query)
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    self._raised(op, exc)
                    continue
                latency = perf_counter() - t0
                extra["worker_total_s"] = extra.get("worker_total_s", 0.0) + res.trace["total_s"]
                self._answered(op, pool_index, query, res.rules,
                               res.plan.value, res.cached, latency)
                if res.epoch < epoch_floor:
                    self._fail(f"op {op}: served at epoch {res.epoch}, "
                               f"published {epoch_floor}")

        await self._slice(client)

    async def run(self, lo: int, hi: int) -> Phase:
        service, engine = self.service, self.engines["wide"]
        phase = self.phase
        rows = engine.table.data.copy()      # the harness's own rows
        self._begin()
        segment: list[tuple[int, int]] = []
        epoch_floor = service.publisher.epoch
        for op, step in self._ops(lo, hi):
            if step[0] == "query":
                segment.append((op, step[1]))
                continue
            # A publish is a barrier: both clients finish the segment, the
            # sample is checked against the rows served so far, then the
            # writer ingests and publishes while the clients wait.
            await self._segments(segment, epoch_floor)
            segment = []
            self._verify_pending(rows)
            phase.attempted += 1
            t0 = perf_counter()
            try:
                await service.ingest(step[1], publish=True)
            except Exception as exc:  # noqa: BLE001 — counted as failed
                self._fail(f"op {op} (publish): {type(exc).__name__}: {exc}")
                continue
            phase.mutation_s += perf_counter() - t0
            phase.mutation_rows += len(step[1])
            rows = np.vstack([rows, step[1]])
            epoch_floor = service.publisher.epoch
        await self._segments(segment, epoch_floor)
        self._end()
        self._verify_pending(rows)
        return phase

    async def _segments(self, ops: list[tuple[int, int]], epoch_floor: int) -> None:
        """The queries between two publishes, with a barrier and a host-speed
        sample every few hundred milliseconds."""
        for at in range(0, len(ops), BARRIER_EVERY):
            await self._segment(ops[at: at + BARRIER_EVERY], epoch_floor)
            self._probe()


RUNNERS = {
    "fresh_grid": FreshGrid,
    "zipf_served": ZipfServed,
    "ingest_mixed": IngestMixed,
    "wide_cluster": WideCluster,
}
