"""Concurrent query service with cost-model admission control.

The ROADMAP's north-star is COLARM as a *service*: heavy concurrent
traffic over one shared MIP-index.  This module is that serving layer —
an asyncio front door over :class:`repro.core.engine.Colarm` built from
three pieces:

* **Request coalescing** — in-flight requests are grouped by the same
  canonical key the cache and the batch executor already use
  (:func:`repro.core.query.canonical_focal_key` plus the item/threshold
  fields), so N concurrent identical requests cost one execution: the
  first arrival leads, later arrivals attach as waiters, and the finish
  fans the result out to everyone.  Cache hits short-circuit the service
  entirely — the request's one cache probe finds the entry and it is
  served on the event-loop thread, unpriced
  (:meth:`repro.core.engine.Colarm.serve_cached`), so a hit never waits
  behind a miss that is mining.  ``use_cache=False`` requests bypass
  coalescing in *both* directions (they neither attach nor accept
  attachments): a bypass caller asked for a fresh execution, not another
  waiter's shared result.

* **Cost-aware admission and scheduling** — every request is priced by
  ``optimizer.choose()`` before it is queued, and the chosen variant's
  estimate (:attr:`~repro.core.optimizer.PlanChoice.chosen_estimate`)
  becomes its admission weight: requests costing more than
  ``cost_ceiling`` are shed (:class:`~repro.errors.ServiceOverloadError`)
  or parked on a deferred heap, and the ready queue is a priority heap
  ordered by ``estimated_cost - aging * time_waited`` — cheap MIP-plan
  requests run ahead of expensive ARM re-mines, while
  the aging term guarantees an expensive request's priority eventually
  beats any newcomer's (no starvation).  ``aging = inf`` degenerates to
  pure FIFO; ``aging = 0`` to pure cost order.

* **Off-loop execution** — the event loop never mines: full pricing and
  plan execution run on a small thread pool, serialized by one lock (the
  engine's optimizer/index state is not thread-safe; the rule cache has
  its own lock).

Correctness across mutations: every priced choice and every in-flight
group is stamped with :attr:`repro.core.mipindex.MIPIndex.generation`.
A request never attaches to a group priced against an older tree, and
``engine.query(choice=...)`` re-prices any stale handoff — so an index
mutation between enqueue and execute forces re-pricing and re-execution,
never a stale serve (the cache's own generation check backstops this).

Every response carries a :class:`RequestTrace` (queue wait, coalesce
fan-out, plan, cached/deferred flags) and the service keeps
running counters with p50/p99 latency and throughput
(:meth:`ServiceStats.snapshot`) — the observables the serving benchmark
and the CI ``serving-gate`` assert against.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.engine import Colarm, QueryOutcome
from repro.core.optimizer import PlanChoice
from repro.core.plans import PlanKind, plan_from_name
from repro.core.query import LocalizedQuery, canonical_focal_key
from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from repro.itemsets.rules import RuleBlock

__all__ = [
    "ServingConfig",
    "RequestTrace",
    "ServedQuery",
    "CostScheduler",
    "ServiceStats",
    "QueryService",
]


@dataclass(frozen=True)
class ServingConfig:
    """Admission-control and execution knobs of one :class:`QueryService`.

    ``max_pending`` bounds the scheduler queue (distinct in-flight
    executions; coalesced waiters ride for free).  ``cost_ceiling`` is
    the admission bar in estimated seconds; ``over_budget`` says what
    happens above it (``"shed"`` raises
    :class:`~repro.errors.ServiceOverloadError`, ``"defer"`` parks the
    request until the ready queue is empty).  ``aging`` is the priority
    credit per second waited, in estimated-cost seconds — ``inf`` means
    strict FIFO, ``0`` strict cost order.  ``workers`` sizes the
    execution thread pool; ``coalesce=False`` disables request sharing
    entirely (every request executes fresh).
    """

    max_pending: int = 64
    workers: int = 2
    cost_ceiling: float = float("inf")
    over_budget: str = "shed"
    aging: float = 1.0
    coalesce: bool = True

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be positive, got {self.max_pending}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.cost_ceiling < 0:
            raise ValueError(
                f"cost_ceiling must be non-negative, got {self.cost_ceiling}"
            )
        if self.over_budget not in ("shed", "defer"):
            raise ValueError(
                f"over_budget must be 'shed' or 'defer', got "
                f"{self.over_budget!r}"
            )
        if self.aging < 0:
            raise ValueError(f"aging must be non-negative, got {self.aging}")


@dataclass
class RequestTrace:
    """What happened to one request inside the service."""

    estimated_cost: float = 0.0
    queue_wait_s: float = 0.0
    execute_s: float = 0.0
    total_s: float = 0.0
    coalesced: int = 1          # requests served by this execution
    leader: bool = True         # False: attached to another's execution
    plan: PlanKind | None = None
    cached: bool = False
    deferred: bool = False
    generation: int = 0

    def as_dict(self) -> dict:
        return {
            "estimated_cost": self.estimated_cost,
            "queue_wait_s": self.queue_wait_s,
            "execute_s": self.execute_s,
            "total_s": self.total_s,
            "coalesced": self.coalesced,
            "leader": self.leader,
            "plan": self.plan.value if self.plan is not None else None,
            "cached": self.cached,
            "deferred": self.deferred,
            "generation": self.generation,
        }


@dataclass
class ServedQuery:
    """One served response: the engine outcome plus its service trace."""

    outcome: QueryOutcome
    trace: RequestTrace

    @property
    def rules(self) -> RuleBlock:
        return self.outcome.rules

    @property
    def plan(self) -> PlanKind:
        return self.outcome.plan

    @property
    def cached(self) -> bool:
        return self.outcome.cached


class CostScheduler:
    """Cost-priority queue with admission control and an aging term.

    Pure and synchronous — the service drives it from the event loop, the
    self-tests drive it directly.  The dynamic priority ``cost - aging *
    (now - enqueued)`` is realized as the *static* heap key ``cost +
    aging * enqueued`` (the ``aging * now`` term is common to every
    entry, so the order is identical and no re-heapify is ever needed);
    ties break by arrival order.  With ``aging = inf`` every key
    collapses to the arrival sequence — strict FIFO.

    Two heaps: the ready heap, and a deferred heap for over-ceiling
    requests under ``over_budget="defer"`` — popped only when the ready
    heap is empty, so deferred work runs in idle gaps instead of being
    dropped.
    """

    def __init__(
        self,
        cost_ceiling: float = float("inf"),
        over_budget: str = "shed",
        aging: float = 1.0,
    ):
        if over_budget not in ("shed", "defer"):
            raise ValueError(
                f"over_budget must be 'shed' or 'defer', got {over_budget!r}"
            )
        self.cost_ceiling = cost_ceiling
        self.over_budget = over_budget
        self.aging = aging
        self._ready: list[tuple[float, int, object]] = []
        self._deferred: list[tuple[float, int, object]] = []
        self._seq = itertools.count()

    def admit(self, cost: float) -> str:
        """Admission verdict for an estimated cost: run / defer / shed."""
        if cost <= self.cost_ceiling:
            return "run"
        return self.over_budget

    def _key(self, cost: float, enqueued: float) -> float:
        if self.aging == float("inf"):
            return 0.0  # sequence tie-break alone orders the heap: FIFO
        return cost + self.aging * enqueued

    def push(self, item: object, cost: float, enqueued: float,
             deferred: bool = False) -> None:
        heap = self._deferred if deferred else self._ready
        heapq.heappush(heap, (self._key(cost, enqueued), next(self._seq), item))

    def pop(self) -> object:
        """Cheapest-effective ready item; deferred only when ready is empty."""
        if self._ready:
            return heapq.heappop(self._ready)[2]
        if self._deferred:
            return heapq.heappop(self._deferred)[2]
        raise IndexError("pop from an empty scheduler")

    def drain(self) -> list[object]:
        """Remove and return every queued item (shutdown without drain)."""
        items = [entry[2] for entry in self._ready]
        items += [entry[2] for entry in self._deferred]
        self._ready.clear()
        self._deferred.clear()
        return items

    @property
    def n_deferred(self) -> int:
        return len(self._deferred)

    def __len__(self) -> int:
        return len(self._ready) + len(self._deferred)


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
    shed_queue_full: int = 0
    shed_over_budget: int = 0
    deferred: int = 0
    latencies_s: deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )
    first_serve_t: float | None = None
    last_serve_t: float | None = None

    def record_serve(self, latency_s: float, now: float) -> None:
        self.served += 1
        self.latencies_s.append(latency_s)
        if self.first_serve_t is None:
            self.first_serve_t = now
        self.last_serve_t = now

    @property
    def shed(self) -> int:
        return self.shed_queue_full + self.shed_over_budget

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 1] over the recent window (0.0
        when nothing served)."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]

    def snapshot(self) -> dict:
        """The service's observable state — the benchmark/gate payload."""
        span = 0.0
        if self.first_serve_t is not None and self.last_serve_t is not None:
            span = self.last_serve_t - self.first_serve_t
        return {
            "submitted": self.submitted,
            "served": self.served,
            "errors": self.errors,
            "executions": self.executions,
            "coalesced": self.coalesced,
            "cache_short_circuits": self.cache_short_circuits,
            "shed": self.shed,
            "shed_queue_full": self.shed_queue_full,
            "shed_over_budget": self.shed_over_budget,
            "deferred": self.deferred,
            "p50_s": self.percentile(0.50),
            "p99_s": self.percentile(0.99),
            "throughput_qps": (self.served / span) if span > 0 else 0.0,
        }


class _Flight:
    """One scheduled execution and everyone waiting on it."""

    __slots__ = (
        "query", "plan", "use_cache", "choice", "generation",
        "key", "deferred", "enqueued", "waiters", "started",
    )

    def __init__(self, query, plan, use_cache, choice, generation, key,
                 deferred, enqueued):
        self.query = query
        self.plan = plan
        self.use_cache = use_cache
        self.choice = choice
        self.generation = generation
        self.key = key              # None: not coalescible (cache bypass)
        self.deferred = deferred
        self.enqueued = enqueued
        #: (future, submit time, leader?) per request sharing this flight.
        self.waiters: list[tuple[asyncio.Future, float, bool]] = []
        self.started = False


class QueryService:
    """The asyncio query service over one :class:`Colarm` engine.

    Lifecycle: construct, ``await start()``, ``await submit(...)`` from
    any number of tasks, ``await stop()``.  ``async with`` does the
    start/stop pair.  Requests submitted before :meth:`start` queue up
    and run once the dispatcher starts — the deterministic mode the
    ordering tests use.
    """

    def __init__(
        self,
        engine: Colarm,
        config: ServingConfig | None = None,
        engine_lock: threading.Lock | None = None,
    ):
        self.engine = engine
        self.config = config or ServingConfig()
        self.scheduler = CostScheduler(
            cost_ceiling=self.config.cost_ceiling,
            over_budget=self.config.over_budget,
            aging=self.config.aging,
        )
        self.stats = ServiceStats()
        #: Serializes pricing, execution and mutation on the engine (the
        #: optimizer memo and the index state are not thread-safe; only
        #: ``Colarm.serve_cached`` runs outside it).  When several services
        #: front the *same* engine in one process (the cluster's
        #: in-process fallback), they must share one lock — pass it here.
        self._engine_lock = engine_lock or threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="colarm-serve",
        )
        self._inflight: dict[tuple, _Flight] = {}
        #: Coalescing key -> done-future of the request being priced to
        #: lead its flight; same-key arrivals wait for that flight instead
        #: of pricing themselves.
        self._pricing: dict[tuple, asyncio.Future] = {}
        self._wake = asyncio.Event()
        self._slots = asyncio.Semaphore(self.config.workers)
        self._dispatcher: asyncio.Task | None = None
        self._running: set[asyncio.Task] = set()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "QueryService":
        if self._closed:
            raise ServiceClosedError("service already stopped")
        if self._dispatcher is None:
            self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` serves everything already queued or running before
        shutting down; ``drain=False`` fails queued requests with
        :class:`~repro.errors.ServiceClosedError` (executions already on
        a worker thread still complete and fan out — a thread mid-mine
        cannot be safely killed).
        """
        if self._closed:
            return
        self._closed = True
        if not drain:
            for flight in self.scheduler.drain():
                self._fail_flight(
                    flight, ServiceClosedError("service stopped")
                )
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._running:
            await asyncio.gather(*self._running, return_exceptions=True)
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def n_pending(self) -> int:
        return len(self.scheduler)

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

        Runs on a worker thread *under the engine lock*, so a batch lands
        atomically between flights: every execution sees either none or
        all of it, and the generation bump invalidates priced choices and
        cache entries from before the append.  Returns the new index
        generation.  Requires ``engine.enable_maintenance()``.
        """
        if self._closed:
            raise ServiceClosedError("service is stopped")
        loop = asyncio.get_running_loop()

        def run() -> int:
            with self._engine_lock:
                return self.engine.append(records)

        return await loop.run_in_executor(self._executor, run)

    async def remove(self, tids) -> int:
        """Tombstone records by tid; same locking contract as :meth:`ingest`."""
        if self._closed:
            raise ServiceClosedError("service is stopped")
        loop = asyncio.get_running_loop()

        def run() -> int:
            with self._engine_lock:
                return self.engine.delete(tids)

        return await loop.run_in_executor(self._executor, run)

    # -- request intake ----------------------------------------------------

    async def submit(
        self,
        request: LocalizedQuery | str,
        plan: PlanKind | str | None = None,
        use_cache: bool = True,
    ) -> ServedQuery:
        """Serve one localized mining request through the service.

        Raises :class:`~repro.errors.ServiceOverloadError` when admission
        sheds the request and :class:`~repro.errors.ServiceClosedError`
        after :meth:`stop`.  ``use_cache=False`` additionally opts the
        request out of coalescing — it always gets a fresh execution.
        """
        if self._closed:
            raise ServiceClosedError("service is stopped")
        t_submit = time.monotonic()
        self.stats.submitted += 1
        q = (
            self.engine.parse(request)
            if isinstance(request, str)
            else request
        )
        if isinstance(plan, str):
            plan = plan_from_name(plan)
        q.validate_against(self.engine.schema)

        loop = asyncio.get_running_loop()
        choice: PlanChoice | None = None
        cost = 0.0
        if plan is None and use_cache and self.engine.cache is not None:
            outcome = self.engine.serve_cached(q, None)
            if outcome is not None:
                # A cache hit: no pricing, no engine lock, no queue, no
                # thread hop.
                return self._served_inline(outcome, t_submit)
        coalescible = use_cache and self.config.coalesce
        key = self._request_key(q, plan) if coalescible else None
        if plan is None:
            # A flight already registered needs no price to be joined.
            # One being priced right now will be registered the moment its
            # pricing returns: wait for it instead of pricing the same
            # request.
            while True:
                waiter = self._attach(key, t_submit)
                if waiter is not None:
                    return await waiter
                pricing = self._pricing.get(key)
                if pricing is None:
                    break
                await pricing
            if key is not None:
                priced = self._pricing[key] = loop.create_future()
            try:
                choice = await loop.run_in_executor(
                    self._executor, self._price, q
                )
            finally:
                if key is not None:
                    del self._pricing[key]
                    priced.set_result(None)
            cost = choice.chosen_estimate
        return await self._admit(q, plan, use_cache, choice, cost, key, t_submit)

    def _admit(self, q, plan, use_cache, choice, cost, key, t_submit):
        """Join, queue or refuse a priced request; the future to await.
        A ``choice`` that does not become a flight's (joined another,
        shed, service closed) ends here, and its projection with it."""
        flight = None
        try:
            if self._closed:
                raise ServiceClosedError("service is stopped")
            waiter = self._attach(key, t_submit)
            if waiter is not None:
                return waiter
            generation = self.engine.index.generation

            if self.n_pending >= self.config.max_pending:
                self.stats.shed_queue_full += 1
                raise ServiceOverloadError(
                    f"queue full ({self.config.max_pending} pending)"
                )
            verdict = self.scheduler.admit(cost)
            if verdict == "shed":
                self.stats.shed_over_budget += 1
                raise ServiceOverloadError(
                    f"estimated cost {cost:.6f}s over ceiling "
                    f"{self.config.cost_ceiling:.6f}s"
                )
            deferred = verdict == "defer"
            if deferred:
                self.stats.deferred += 1

            flight = _Flight(
                query=q, plan=plan, use_cache=use_cache, choice=choice,
                generation=generation, key=key, deferred=deferred,
                enqueued=t_submit,
            )
            fut = asyncio.get_running_loop().create_future()
            flight.waiters.append((fut, t_submit, True))
            if key is not None:
                self._inflight[key] = flight
            self.scheduler.push(flight, cost, t_submit, deferred=deferred)
            self._wake.set()
            return fut
        finally:
            if flight is None and choice is not None:
                choice.release()

    def _request_key(
        self, q: LocalizedQuery, plan: PlanKind | str | None
    ) -> tuple:
        """The coalescing identity of a request.

        The focal part is the same canonical key the cache and the batch
        executor group by; the rest pins everything else that changes the
        answer (item attributes, thresholds, engine mode, forced plan).
        """
        return (
            canonical_focal_key(
                q.range_selections, self.engine.index.cardinalities
            ),
            None
            if q.item_attributes is None
            else tuple(sorted(q.item_attributes)),
            self.engine.expand,
            q.minsupp,
            q.minconf,
            plan,
        )

    def _attach(
        self, key: tuple | None, t_submit: float
    ) -> asyncio.Future | None:
        """Join the in-flight execution of ``key`` priced against the
        current index generation, if there is one."""
        flight = self._inflight.get(key) if key is not None else None
        if (
            flight is None
            or flight.generation != self.engine.index.generation
        ):
            return None
        fut = asyncio.get_running_loop().create_future()
        flight.waiters.append((fut, t_submit, False))
        self.stats.coalesced += 1
        return fut

    def _served_inline(
        self, outcome: QueryOutcome, t_submit: float
    ) -> ServedQuery:
        now = time.monotonic()
        self.stats.cache_short_circuits += 1
        self.stats.executions += 1
        trace = RequestTrace(
            execute_s=now - t_submit,
            total_s=now - t_submit,
            plan=outcome.plan,
            cached=True,
            generation=self.engine.index.generation,
        )
        self.stats.record_serve(trace.total_s, now)
        return ServedQuery(outcome=outcome, trace=trace)

    # -- engine access (worker threads only) --------------------------------

    def _price(self, q: LocalizedQuery) -> PlanChoice:
        with self._engine_lock:
            return self.engine.optimizer.choose(q)

    def _execute(self, flight: _Flight) -> QueryOutcome:
        with self._engine_lock:
            return self.engine.query(
                flight.query,
                plan=flight.plan,
                use_cache=flight.use_cache,
                choice=flight.choice,
            )

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            while not self._closed and len(self.scheduler) == 0:
                self._wake.clear()
                await self._wake.wait()
            if len(self.scheduler) == 0:  # closed and drained
                break
            await self._slots.acquire()
            if len(self.scheduler) == 0:  # drained while waiting for a slot
                self._slots.release()
                continue
            flight = self.scheduler.pop()
            task = asyncio.ensure_future(self._run_flight(flight))
            self._running.add(task)
            task.add_done_callback(self._running.discard)

    async def _run_flight(self, flight: _Flight) -> None:
        loop = asyncio.get_running_loop()
        try:
            flight.started = True
            t_exec = time.monotonic()
            try:
                outcome = await loop.run_in_executor(
                    self._executor, self._execute, flight
                )
            finally:
                # New arrivals must lead a fresh flight once execution is
                # done — un-register before fan-out, under the loop.
                if flight.key is not None:
                    if self._inflight.get(flight.key) is flight:
                        del self._inflight[flight.key]
            now = time.monotonic()
            self.stats.executions += 1
            fanout = len(flight.waiters)
            for fut, t_submit, leader in flight.waiters:
                if fut.done():  # the waiter cancelled; others still serve
                    continue
                trace = RequestTrace(
                    estimated_cost=(
                        flight.choice.chosen_estimate
                        if flight.choice is not None
                        else 0.0
                    ),
                    # A waiter that attached after execution started has
                    # waited zero queue time, not negative.
                    queue_wait_s=max(0.0, t_exec - t_submit),
                    execute_s=now - t_exec,
                    total_s=now - t_submit,
                    coalesced=fanout,
                    leader=leader,
                    plan=outcome.plan,
                    cached=outcome.cached,
                    deferred=flight.deferred,
                    generation=self.engine.index.generation,
                )
                self.stats.record_serve(trace.total_s, now)
                fut.set_result(ServedQuery(outcome=outcome, trace=trace))
        except Exception as exc:  # noqa: BLE001 — relayed to every waiter
            self._fail_flight(flight, exc)
        finally:
            self._slots.release()

    def _fail_flight(self, flight: _Flight, exc: BaseException) -> None:
        if flight.key is not None and self._inflight.get(flight.key) is flight:
            del self._inflight[flight.key]
        if flight.choice is not None:
            flight.choice.release()
        for fut, _t, _leader in flight.waiters:
            if not fut.done():
                self.stats.errors += 1
                fut.set_exception(exc)


async def serve_all(
    engine: Colarm,
    requests: list[LocalizedQuery | str],
    config: ServingConfig | None = None,
) -> tuple[list[ServedQuery | ServiceError], dict]:
    """Run a whole workload through a fresh service (the replay helper).

    Returns per-request results *in submission order* — a shed or failed
    request yields its :class:`~repro.errors.ServiceError` instead of a
    response — plus the final stats snapshot.
    """
    service = QueryService(engine, config)

    async def one(req):
        try:
            return await service.submit(req)
        except ServiceError as exc:
            return exc

    async with service:
        results = await asyncio.gather(*(one(r) for r in requests))
    return list(results), service.snapshot()
