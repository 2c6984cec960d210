"""Concurrent query service: cache hits on the loop, misses in FIFO flights.

The ROADMAP's north-star is COLARM as a *service*: heavy concurrent
traffic over one shared MIP-index.  This module is that serving layer —
the one asyncio front door over :class:`repro.core.engine.Colarm`, for
both deployments: :class:`QueryService` runs a miss on its engine
thread, and its subclass :class:`repro.cluster.ClusterService` runs it
on a worker process.  Both share three pieces:

* **Inline cache hits** — every request, forced plans included, makes
  its one cache probe on the event-loop thread
  (:meth:`repro.core.engine.Colarm.serve_cached`).  A hit is served
  right there, unpriced: it never queues, never hops to the engine
  thread and never waits behind a miss that is mining.

* **Request coalescing** — a miss becomes a *flight* at submit, keyed by
  the same canonical key the cache and the batch executor already use
  (:func:`repro.core.query.canonical_focal_key` plus the item/threshold
  fields and the forced plan), so N concurrent identical misses cost one
  execution: the first arrival leads, later arrivals attach as waiters,
  and the finish fans the result out to everyone.  ``use_cache=False``
  requests bypass coalescing in *both* directions (they neither attach
  nor accept attachments): a bypass caller asked for a fresh execution,
  not another waiter's shared result.

* **One engine thread** — the engine's optimizer and index state are
  not thread-safe, so one thread drives them: :meth:`ingest` /
  :meth:`remove` run on it (the rule cache has its own lock), and so
  does every miss in process.  Its flights wait in a FIFO queue bounded
  by ``max_pending`` (past it a request is shed with
  :class:`~repro.errors.ServiceOverloadError`) and run in arrival
  order, each one hop to that thread:
  :meth:`~repro.core.engine.Colarm.serve_fresh` installs any finished
  fold, prices the request (its one ``optimizer.choose``), executes the
  chosen plan on the profiled projection and populates the cache.  In a
  cluster the thread is the writer's, and misses run on the workers.

Correctness across mutations: a miss is priced when its flight runs, so
an index mutation while it is queued is simply part of the state it is
planned against.  Every flight is stamped with the index generation it
was queued at (in a cluster, the epoch it may be served at), and a
request never attaches to a flight of an older stamp (the cache's own
generation check backstops the populate).

Every response, in process or from a cluster, is a :class:`ServedQuery`
carrying a :class:`RequestTrace` (queue wait, coalesce fan-out, plan,
cached flag), and the service keeps running counters with
p50/p99 latency and throughput (:meth:`ServiceStats.snapshot`) — the
observables the serving benchmark and the CI ``serving-gate`` assert
against.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.engine import Colarm, QueryOutcome
from repro.core.plans import PlanKind, plan_from_name
from repro.core.query import LocalizedQuery, canonical_focal_key
from repro.errors import (
    QueryError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from repro.itemsets.rules import RuleBlock

__all__ = [
    "ServingConfig",
    "RequestTrace",
    "ServedQuery",
    "ServiceStats",
    "QueryService",
    "request_key",
]


@dataclass(frozen=True)
class ServingConfig:
    """Queue bound of one :class:`QueryService`.

    ``max_pending`` bounds the queue of flights waiting to run (distinct
    executions; coalesced waiters ride for free).
    """

    max_pending: int = 64

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be positive, got {self.max_pending}"
            )


@dataclass
class RequestTrace:
    """What happened to one request inside the service.

    A cluster's routed answer carries the worker's ``serve_fresh`` time
    as ``execute_s`` and ``total_s`` (its router latency minus that is
    the hop) and no queue wait: a worker has no queue.
    """

    queue_wait_s: float = 0.0
    execute_s: float = 0.0
    total_s: float = 0.0
    coalesced: int = 1          # requests served by this execution
    leader: bool = True         # False: attached to another's execution
    plan: PlanKind | None = None
    cached: bool = False
    generation: int = 0

    def __getitem__(self, name: str):
        """A field by name, as a mapping reads it: ``trace["total_s"]``."""
        return getattr(self, name)

    def as_dict(self) -> dict:
        return {
            "queue_wait_s": self.queue_wait_s,
            "execute_s": self.execute_s,
            "total_s": self.total_s,
            "coalesced": self.coalesced,
            "leader": self.leader,
            "plan": self.plan.value if self.plan is not None else None,
            "cached": self.cached,
            "generation": self.generation,
        }


@dataclass
class ServedQuery:
    """One served response: the engine outcome plus its service trace.

    ``worker`` is the cluster worker process that executed the request
    (``None`` in process and for a router cache hit); ``epoch`` is the
    published epoch it was served at (``None`` in process).
    """

    outcome: QueryOutcome
    trace: RequestTrace
    worker: int | None = None
    epoch: int | None = None

    @property
    def generation(self) -> int:
        return self.trace.generation

    @property
    def rules(self) -> RuleBlock:
        return self.outcome.rules

    @property
    def plan(self) -> PlanKind:
        return self.outcome.plan

    @property
    def cached(self) -> bool:
        return self.outcome.cached


#: Latencies :class:`ServiceStats` keeps for its percentiles: the most
#: recent ones, so a long-lived service neither grows nor sorts its whole
#: history on every ``snapshot()``.
LATENCY_WINDOW = 4096


@dataclass
class ServiceStats:
    """Running counters plus the recent-latency window of one service.

    Written from the event-loop thread only.
    """

    submitted: int = 0
    served: int = 0
    errors: int = 0
    executions: int = 0
    coalesced: int = 0           # requests that attached to another flight
    cache_short_circuits: int = 0
    shed: int = 0                # refused: the queue was full
    latencies_s: deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )
    first_submit_t: float | None = None
    last_serve_t: float | None = None

    def record_submit(self, now: float) -> None:
        self.submitted += 1
        if self.first_submit_t is None:
            self.first_submit_t = now

    def record_serve(self, latency_s: float, now: float) -> None:
        self.served += 1
        self.latencies_s.append(latency_s)
        self.last_serve_t = now

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 1] over the recent window (0.0
        when nothing served)."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]

    def snapshot(self) -> dict:
        """The service's observable state — the benchmark/gate payload.

        Throughput is answers over the span from the first submit to the
        last serve: answers that all land at one instant still took the
        time since their requests arrived.
        """
        span = 0.0
        if self.first_submit_t is not None and self.last_serve_t is not None:
            span = self.last_serve_t - self.first_submit_t
        return {
            "submitted": self.submitted,
            "served": self.served,
            "errors": self.errors,
            "executions": self.executions,
            "coalesced": self.coalesced,
            "cache_short_circuits": self.cache_short_circuits,
            "shed": self.shed,
            "p50_s": self.percentile(0.50),
            "p99_s": self.percentile(0.99),
            "throughput_qps": (self.served / span) if span > 0 else 0.0,
        }


def request_key(engine: Colarm, q: LocalizedQuery, plan) -> tuple:
    """The coalescing identity of a request to ``engine``.

    The focal part is the same canonical key the cache and the batch
    executor group by; the rest pins everything else that changes the
    answer (engine mode, item attributes, thresholds, forced plan — a
    :class:`PlanKind` or ``None``).
    """
    return (
        canonical_focal_key(q.range_selections, engine.index.cardinalities),
        engine.expand,
        None if q.item_attributes is None else tuple(sorted(q.item_attributes)),
        q.minsupp,
        q.minconf,
        plan,
    )


class _Flight:
    """One execution of a miss and everyone waiting on it."""

    __slots__ = ("query", "plan", "use_cache", "stamp", "key", "waiters")

    def __init__(self, query, plan, use_cache, stamp, key):
        self.query = query
        self.plan = plan
        self.use_cache = use_cache
        #: The index generation in process, the epoch in a cluster.
        self.stamp = stamp
        self.key = key              # None: not coalescible (cache bypass)
        #: (future, submit time, leader?) per request sharing this flight.
        self.waiters: list[tuple[asyncio.Future, float, bool]] = []


class QueryService:
    """The asyncio query service over one :class:`Colarm` engine.

    Lifecycle: construct, ``await start()``, ``await submit(...)`` from
    any number of tasks, ``await stop()``.  ``async with`` does the
    start/stop pair.  Requests submitted before :meth:`start` queue up
    and go to the engine thread when it starts — the deterministic mode
    the ordering tests use.

    The front door — intake, inline hit, coalescing table, fan-out and
    stats — is this class's alone, and every answer is a
    :class:`ServedQuery`; a subclass overrides only where a miss runs
    (:meth:`_dispatch`) and what its flight is stamped with
    (:meth:`_stamp`).  :class:`repro.cluster.ClusterService` runs misses
    on worker processes that way.
    """

    def __init__(self, engine: Colarm, config: ServingConfig | None = None):
        self.engine = engine
        #: Bound on the engine thread's queue of flights.
        self._max_pending = (config or ServingConfig()).max_pending
        self.stats = ServiceStats()
        #: The one thread that drives the engine: every flight, append and
        #: delete runs here, in the order it was handed over (the
        #: optimizer memo and the index state are not thread-safe; only
        #: ``Colarm.serve_cached`` runs on the loop).
        self._engine_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="colarm-serve"
        )
        #: Flights handed over (or waiting for :meth:`start`) that the
        #: engine thread has not started yet, in arrival order.
        self._queue: deque[_Flight] = deque()
        #: The coalescing table: request key -> the flight a joiner awaits.
        self._inflight: dict[tuple, _Flight] = {}
        self._running: set[asyncio.Future] = set()
        #: The published epoch answers are served at: ``None`` in
        #: process; a cluster's publishes advance it.
        self._min_epoch: int | None = None
        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "QueryService":
        if self._closed:
            raise ServiceClosedError("service already stopped")
        if not self._started:
            self._started = True
            for _ in range(len(self._queue)):
                self._hand_over()
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` serves everything already queued or running before
        shutting down; ``drain=False`` fails queued requests with
        :class:`~repro.errors.ServiceClosedError` (the execution already
        on the engine thread still completes and fans out — a thread
        mid-mine cannot be safely killed).
        """
        if self._closed:
            return
        if drain:
            await self.start()
        self._closed = True
        await asyncio.sleep(0)  # hand over the arrivals of this loop turn
        while not drain:
            # The engine thread pops flights as it starts them: each
            # queued flight is popped once, here or there.
            try:
                flight = self._queue.popleft()
            except IndexError:
                break
            self._fail_flight(flight, ServiceClosedError("service stopped"))
        if self._running:
            await asyncio.gather(*self._running, return_exceptions=True)
        self._engine_thread.shutdown(wait=True)

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def n_pending(self) -> int:
        return len(self._queue)

    def snapshot(self) -> dict:
        """Service stats plus the queue and maintenance state."""
        out = self.stats.snapshot()
        out["pending"] = self.n_pending
        out["inflight_groups"] = len(self._inflight)
        if self.engine.maintenance is not None:
            m = self.engine.maintenance
            out["maintenance"] = {
                "generation": m.generation,
                "delta_records": m.n_delta_records,
                "main_live": m.n_main_live,
                "recompacting": m.recompacting,
            }
        return out

    # -- ingest-while-serving ----------------------------------------------

    async def ingest(self, records) -> int:
        """Append records through the engine's delta store.

        Runs on the engine thread, so a batch lands atomically between
        flights: every execution sees either none or all of it, and the
        generation bump invalidates cache entries from before the append.
        Returns the new index generation.  Requires
        ``engine.enable_maintenance()``.
        """
        return await self._mutate(self.engine.append, records)

    async def remove(self, tids) -> int:
        """Tombstone records by tid; same threading contract as
        :meth:`ingest`."""
        return await self._mutate(self.engine.delete, tids)

    async def _mutate(self, fn, arg) -> int:
        if self._closed:
            raise ServiceClosedError("service is stopped")
        return await self._on_engine_thread(fn, arg)

    def _on_engine_thread(self, fn, *args) -> asyncio.Future:
        return asyncio.get_running_loop().run_in_executor(
            self._engine_thread, fn, *args
        )

    # -- request intake ----------------------------------------------------

    async def submit(
        self,
        request: LocalizedQuery | str,
        plan: PlanKind | str | None = None,
        use_cache: bool = True,
    ) -> ServedQuery:
        """Serve one localized mining request through the service.

        Raises :class:`~repro.errors.ServiceOverloadError` when the queue
        is full, :class:`~repro.errors.ServiceClosedError` after
        :meth:`stop`, and the :class:`~repro.errors.QueryError` of a
        request that does not parse or validate.  ``use_cache=False``
        additionally opts the request out of coalescing — it always gets
        a fresh execution.
        """
        return await self._intake(request, plan, use_cache)

    async def _intake(self, request, plan, use_cache):
        """Parse, validate, serve a cache hit inline (nothing is awaited
        before it), else join the flight in the coalescing table or lead
        a new one through :meth:`_dispatch`; await its answer."""
        if self._closed:
            raise ServiceClosedError("service is stopped")
        t_submit = time.monotonic()
        self.stats.record_submit(t_submit)
        try:
            q = (
                self.engine.parse(request)
                if isinstance(request, str)
                else request
            )
            if isinstance(plan, str):
                plan = plan_from_name(plan)
            q.validate_against(self.engine.schema)
        except QueryError:
            self.stats.errors += 1
            raise
        if use_cache and self.engine.cache is not None:
            # Read before the probe: a mutation racing it on the engine
            # thread makes the probe miss, so a hit is never stamped with
            # a generation it was not served from.
            generation = self.engine.index.generation
            outcome = self.engine.serve_cached(q, plan)
            if outcome is not None:
                # A cache hit: no pricing, no queue, no thread hop.
                return self._served_inline(outcome, generation, t_submit)
        key = request_key(self.engine, q, plan) if use_cache else None
        waiter = self._attach(key, t_submit)
        if waiter is None:
            waiter = self._lead(
                _Flight(q, plan, use_cache, self._stamp(), key), t_submit
            )
        return await waiter

    def _stamp(self) -> int:
        """What a flight is stamped with: a request joins only a flight of
        the current stamp.  Here the index generation."""
        return self.engine.index.generation

    def _attach(
        self, key: tuple | None, t_submit: float
    ) -> asyncio.Future | None:
        """Join the in-flight execution of ``key`` at the current stamp,
        if there is one."""
        flight = self._inflight.get(key) if key is not None else None
        if flight is None or flight.stamp != self._stamp():
            return None
        fut = asyncio.get_running_loop().create_future()
        flight.waiters.append((fut, t_submit, False))
        self.stats.coalesced += 1
        return fut

    def _lead(self, flight: _Flight, t_submit: float) -> asyncio.Future:
        """Dispatch a new flight led by this request; the future to await.
        A flight the dispatch refuses is never registered."""
        self._dispatch(flight)
        fut = asyncio.get_running_loop().create_future()
        flight.waiters.append((fut, t_submit, True))
        if flight.key is not None:
            self._inflight[flight.key] = flight
        return fut

    def _served_inline(
        self, outcome: QueryOutcome, generation: int, t_submit: float
    ) -> ServedQuery:
        now = time.monotonic()
        self.stats.cache_short_circuits += 1
        self.stats.executions += 1
        trace = RequestTrace(
            execute_s=now - t_submit,
            total_s=now - t_submit,
            plan=outcome.plan,
            cached=True,
            generation=generation,
        )
        self.stats.record_serve(trace.total_s, now)
        return ServedQuery(outcome=outcome, trace=trace, epoch=self._min_epoch)

    # -- execution ---------------------------------------------------------

    def _dispatch(self, flight: _Flight) -> None:
        """Queue a flight for the engine thread, or shed it when the queue
        is full."""
        if self.n_pending >= self._max_pending:
            self.stats.shed += 1
            raise ServiceOverloadError(
                f"queue full ({self._max_pending} pending)"
            )
        self._queue.append(flight)
        if self._started:
            # At the end of this loop turn: a burst of arrivals counts
            # against ``max_pending`` before the first of them starts.
            asyncio.get_running_loop().call_soon(self._hand_over)

    def _hand_over(self) -> None:
        """Give the engine thread one more flight to start; its finish fans
        out on the loop."""
        job = self._on_engine_thread(self._start)
        self._running.add(job)
        job.add_done_callback(self._finish)

    def _start(self) -> tuple[_Flight, float, object] | None:
        """Engine thread: run the flight at the head of the queue.

        ``None`` when ``stop(drain=False)`` emptied the queue first; else
        ``(flight, start time, outcome or the exception it raised)``.
        """
        try:
            flight = self._queue.popleft()
        except IndexError:
            return None
        t_exec = time.monotonic()
        try:
            return flight, t_exec, self._execute(flight)
        except Exception as exc:  # noqa: BLE001 — relayed to every waiter
            return flight, t_exec, exc

    def _execute(self, flight: _Flight) -> QueryOutcome:
        return self.engine.serve_fresh(
            flight.query, flight.plan, flight.use_cache
        )

    def _finish(self, job: asyncio.Future) -> None:
        self._running.discard(job)
        started = job.result()
        if started is None:
            return
        flight, t_exec, outcome = started
        if isinstance(outcome, Exception):
            self._fail_flight(flight, outcome)
            return
        now = time.monotonic()
        fanout = len(flight.waiters)
        generation = self.engine.index.generation

        def answer(t_submit: float, leader: bool) -> ServedQuery:
            return ServedQuery(outcome=outcome, trace=RequestTrace(
                # A waiter that attached after execution started has
                # waited zero queue time, not negative.
                queue_wait_s=max(0.0, t_exec - t_submit),
                execute_s=now - t_exec,
                total_s=now - t_submit,
                coalesced=fanout,
                leader=leader,
                plan=outcome.plan,
                cached=outcome.cached,
                generation=generation,
            ))

        self._fan_out(flight, now, answer)

    def _fan_out(self, flight: _Flight, now: float, answer) -> None:
        """Hand every waiter still listening ``answer(submit time,
        leader?)``.  The flight leaves the coalescing table first: new
        arrivals lead a fresh flight once its execution is done."""
        self._unregister(flight)
        self.stats.executions += 1
        for fut, t_submit, leader in flight.waiters:
            if fut.done():  # the waiter cancelled; others still serve
                continue
            self.stats.record_serve(now - t_submit, now)
            fut.set_result(answer(t_submit, leader))

    def _fail_flight(self, flight: _Flight, exc: BaseException) -> None:
        self._unregister(flight)
        for fut, _t, _leader in flight.waiters:
            if not fut.done():
                self.stats.errors += 1
                fut.set_exception(exc)

    def _unregister(self, flight: _Flight) -> None:
        if flight.key is not None and self._inflight.get(flight.key) is flight:
            del self._inflight[flight.key]


async def serve_all(
    service: QueryService, requests: list[LocalizedQuery | str]
) -> tuple[list, dict]:
    """Submit a whole workload concurrently through a started service —
    in process or a cluster — and gather every answer (the replay helper).

    Returns per-request results *in submission order* — a shed, failed or
    malformed request yields its :class:`~repro.errors.ServiceError` or
    :class:`~repro.errors.QueryError` instead of a response — plus the
    service's stats snapshot after the last answer.
    """
    async def one(req):
        try:
            return await service.submit(req)
        except (ServiceError, QueryError) as exc:
            return exc

    results = await asyncio.gather(*(one(r) for r in requests))
    return list(results), service.snapshot()
