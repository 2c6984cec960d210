"""QueryService integration tests: coalescing, queueing, concurrency edges.

No pytest-asyncio in this environment: every test drives its own event
loop with ``asyncio.run``.  The deterministic pattern used throughout:
submit requests *before* ``start()`` (nothing has gone to the engine
thread yet, so flights queue up and attach predictably), then start and
drain.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from dataclasses import fields

import pytest

import repro.core.engine as engine_module
from repro.core.engine import Colarm
from repro.core.plans import PlanKind
from repro.dataset.salary import salary_dataset
from repro.errors import ParseError, ServiceClosedError, ServiceOverloadError
from repro.itemsets.rules import RuleBlock
from repro.serving import (
    LATENCY_WINDOW,
    QueryService,
    ServedQuery,
    ServiceStats,
    ServingConfig,
    serve_all,
)

SEATTLE_F = (
    "REPORT LOCALIZED ASSOCIATION RULES FROM salary "
    "WHERE RANGE Location = (Seattle) AND Gender = (F) "
    "HAVING minsupport = 0.5 AND minconfidence = 0.8;"
)
BOSTON = (
    "REPORT LOCALIZED ASSOCIATION RULES FROM salary "
    "WHERE RANGE Location = (Boston) "
    "HAVING minsupport = 0.4 AND minconfidence = 0.7;"
)
SEATTLE = (
    "REPORT LOCALIZED ASSOCIATION RULES FROM salary "
    "WHERE RANGE Location = (Seattle) "
    "HAVING minsupport = 0.4 AND minconfidence = 0.7;"
)


@pytest.fixture()
def engine() -> Colarm:
    # Fresh per test: these tests mutate engine state (cache, index).
    return Colarm(salary_dataset(), primary_support=0.15)


async def _settle(predicate, timeout: float = 5.0) -> None:
    """Poll the loop until ``predicate()`` holds (a submitted task needs
    a loop turn to probe the cache and enqueue)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never settled")
        await asyncio.sleep(0.01)


def test_coalesce_fanout(engine):
    async def main():
        service = QueryService(engine)
        async with service:
            results = await asyncio.gather(
                *(service.submit(SEATTLE_F) for _ in range(6))
            )
        return service, results

    service, results = asyncio.run(main())
    reference = engine.query(SEATTLE_F, use_cache=False)
    assert all(r.rules == reference.rules for r in results)
    # One execution, one immutable block: every waiter holds the same
    # object, not a copy of it.
    assert isinstance(results[0].rules, RuleBlock)
    assert all(r.rules is results[0].rules for r in results)
    assert service.stats.executions == 1
    assert service.stats.coalesced == 5
    leaders = [r for r in results if r.trace.leader]
    assert len(leaders) == 1
    assert all(r.trace.coalesced == 6 for r in results)


def test_responses_carry_traces(engine):
    async def main():
        async with QueryService(engine) as service:
            return await service.submit(SEATTLE_F)

    served = asyncio.run(main())
    assert isinstance(served, ServedQuery)
    trace = served.trace
    assert trace.plan is served.plan
    assert trace.total_s >= trace.execute_s >= 0
    assert trace.queue_wait_s >= 0
    assert trace.generation == engine.index.generation
    payload = trace.as_dict()
    assert set(payload) == {f.name for f in fields(trace)}
    assert "parallel" not in payload
    assert payload["plan"] == served.plan.value
    assert payload["coalesced"] == 1


def test_cancellation_mid_coalesce(engine):
    async def main():
        service = QueryService(engine)
        # Not started: flights queue, waiters attach deterministically.
        tasks = [
            asyncio.ensure_future(service.submit(SEATTLE_F))
            for _ in range(4)
        ]
        await _settle(lambda: service.stats.coalesced == 3)
        tasks[1].cancel()
        await service.start()
        survivors = await asyncio.gather(
            tasks[0], tasks[2], tasks[3]
        )
        with pytest.raises(asyncio.CancelledError):
            await tasks[1]
        await service.stop()
        return service, survivors

    service, survivors = asyncio.run(main())
    assert service.stats.executions == 1
    reference = engine.query(SEATTLE_F, use_cache=False)
    assert all(r.rules == reference.rules for r in survivors)


def test_execution_failure_reaches_every_coalesced_waiter(engine,
                                                          monkeypatch):
    """An exception raised while a coalesced flight executes is relayed
    to every waiter as that very object, counted once per waiter; the
    engine thread and the flight's in-flight key are freed (the next
    request for the key executes afresh) and the projection its pricing
    made is released."""
    boom = RuntimeError("execution failed")
    priced, failed = [], []
    choose = engine.optimizer.choose
    real = engine_module.execute_plan

    def recording(q):
        priced.append(choose(q))
        return priced[-1]

    def failing_once(*args, **kwargs):
        if not failed:
            failed.append(kwargs["focus"])
            assert kwargs["focus"]._lazy[1] is not None  # projected
            raise boom
        return real(*args, **kwargs)

    monkeypatch.setattr(engine.optimizer, "choose", recording)
    monkeypatch.setattr(engine_module, "execute_plan", failing_once)

    async def main():
        service = QueryService(engine)
        tasks = [
            asyncio.ensure_future(service.submit(SEATTLE_F))
            for _ in range(4)
        ]
        await _settle(lambda: service.stats.coalesced == 3)
        await service.start()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        assert not service._inflight
        retry = await asyncio.wait_for(service.submit(SEATTLE_F), 10)
        await service.stop()
        return service, outcomes, retry

    service, outcomes, retry = asyncio.run(main())
    assert all(outcome is boom for outcome in outcomes)
    assert service.stats.errors == 4
    (focus,) = failed
    assert priced[0].focus is focus
    assert focus._lazy[1] is None and focus._lazy[2] is None
    assert service.stats.executions == 1  # the retry, led afresh
    assert not retry.trace.cached and retry.trace.coalesced == 1
    assert retry.rules == engine.query(SEATTLE_F, use_cache=False).rules


def test_queue_full_sheds(engine):
    async def main():
        service = QueryService(engine, ServingConfig(max_pending=1))
        task = asyncio.ensure_future(service.submit(SEATTLE_F))
        await _settle(lambda: service.n_pending == 1)
        with pytest.raises(ServiceOverloadError):
            await service.submit(BOSTON)  # distinct focal: cannot attach
        await service.start()
        first = await task
        await service.stop()
        return service, first

    service, first = asyncio.run(main())
    assert service.stats.shed == 1
    assert first.rules == engine.query(SEATTLE_F, use_cache=False).rules


def test_cache_hit_short_circuits_queue(engine):
    engine.enable_cache()
    engine.query(SEATTLE_F)  # populate
    warm = engine.query(SEATTLE_F)
    assert warm.cached  # precondition: repeat is a cache serve

    async def main():
        async with QueryService(engine) as service:
            served = await service.submit(SEATTLE_F)
        return service, served

    service, served = asyncio.run(main())
    assert served.cached
    assert served.trace.cached
    assert service.stats.cache_short_circuits == 1
    assert service.n_pending == 0
    assert served.rules == warm.rules


def _park_executions(service):
    """Make every flight hold the engine thread, as a mining miss does,
    until the returned ``release`` event is set."""
    started, release = threading.Event(), threading.Event()
    real = service._execute

    def parked(flight):
        started.set()
        assert release.wait(30)
        return real(flight)

    service._execute = parked
    return started, release


def test_warm_hit_overtakes_a_parked_miss(engine):
    """A cache hit is answered on the loop thread after its one probe,
    unpriced: it neither queues nor waits for the engine thread a miss
    holds."""
    engine.enable_cache()
    warm = engine.query(SEATTLE_F)  # populates the entry

    async def main():
        async with QueryService(engine) as service:
            started, release = _park_executions(service)
            miss = asyncio.ensure_future(service.submit(BOSTON))
            await _settle(started.is_set)
            try:
                hit = await asyncio.wait_for(service.submit(SEATTLE_F), 5)
                overtook = not miss.done()
            finally:
                release.set()
            return service, hit, overtook, await miss

    service, hit, overtook, miss = asyncio.run(main())
    assert overtook
    assert hit.cached and hit.rules == warm.rules
    assert hit.trace.queue_wait_s == 0
    assert hit.trace.cached and hit.trace.plan is hit.plan
    assert hit.outcome.choice is None
    assert not miss.cached
    assert service.stats.cache_short_circuits == 1


def test_forced_hit_overtakes_a_parked_miss(engine):
    """A forced-plan request makes its one probe on the loop thread too:
    whose family entry is cached, it is answered before a miss holding
    the engine thread is released."""
    engine.enable_cache()
    warm = {plan: engine.query(SEATTLE_F, plan=plan) for plan in ("ARM",
                                                                   "SS-VS")}

    async def main():
        async with QueryService(engine) as service:
            started, release = _park_executions(service)
            miss = asyncio.ensure_future(service.submit(BOSTON))
            await _settle(started.is_set)
            try:
                hits = [
                    await asyncio.wait_for(
                        service.submit(SEATTLE_F, plan=plan), 5
                    )
                    for plan in warm
                ]
                overtook = not miss.done()
            finally:
                release.set()
            return service, hits, overtook, await miss

    service, hits, overtook, miss = asyncio.run(main())
    assert overtook
    for hit, (plan, fresh) in zip(hits, warm.items()):
        assert hit.cached and hit.plan.value == plan
        assert hit.rules == fresh.rules
        assert hit.trace.queue_wait_s == 0 and hit.outcome.choice is None
    assert not miss.cached
    assert service.stats.cache_short_circuits == 2


def test_an_inline_hit_is_stamped_with_the_generation_it_was_served_at(
    engine, monkeypatch,
):
    """A mutation landing right after the probe (here: a generation bump
    once the real ``serve_cached`` returns) does not restamp the hit: its
    trace carries the generation read before the probe."""
    engine.enable_cache()
    engine.query(SEATTLE_F)  # populate
    serve_cached = engine.serve_cached

    def then_bumped(q, kind):
        outcome = serve_cached(q, kind)
        engine.index.bump_generation()
        return outcome

    monkeypatch.setattr(engine, "serve_cached", then_bumped)
    before = engine.index.generation

    async def main():
        async with QueryService(engine) as service:
            return await service.submit(SEATTLE_F)

    served = asyncio.run(main())
    assert served.cached and engine.index.generation == before + 1
    assert served.trace.generation == before


def test_append_between_populate_and_repeat_is_never_inline(engine):
    engine.enable_cache()
    engine.enable_maintenance(calibrate=False)
    record = [int(v) for v in engine.table.data[0]]

    async def main():
        async with QueryService(engine) as service:
            first = await service.submit(SEATTLE_F)
            repeat = await service.submit(SEATTLE_F)
            await service.ingest([record])
            after = await service.submit(SEATTLE_F)
            return service, first, repeat, after

    service, first, repeat, after = asyncio.run(main())
    assert not first.cached and repeat.cached
    assert service.stats.cache_short_circuits == 1  # the repeat alone
    assert not after.cached
    assert after.trace.generation == engine.index.generation
    assert after.rules == engine.query(SEATTLE_F, use_cache=False).rules


def test_hit_evicted_at_the_probe_is_simply_a_miss(engine):
    """Regression: an entry evicted between probe and serve used to be
    re-mined outside the queue (off the engine thread, no coalescing) and still counted
    as a cache short circuit.  Now it is an ordinary miss: queued, priced
    and executed as a flight, with no second probe."""
    boston = engine.parse(BOSTON)
    boston_fresh = engine.query(boston, use_cache=False)
    boston_rules = boston_fresh.rules
    engine.enable_cache()
    sizes = []
    for fill in (lambda: engine.query(SEATTLE_F),
                 lambda: engine.cache.put_rules(
                     boston, boston_rules, boston_fresh.dq_size)):
        engine.cache.invalidate()
        fill()
        sizes.append(engine.cache.stats.current_bytes)
    # Room for either entry, never for both.
    engine.enable_cache(budget_bytes=max(sizes) + 64)
    warm = engine.query(SEATTLE_F)
    cache = engine.cache
    real_probe = cache.probe

    probes = []

    def probe_then_evict(query):
        found = real_probe(query)
        probes.append(found.kind)
        # Takes the only slot.
        cache.put_rules(boston, boston_rules, boston_fresh.dq_size)
        return found

    async def main():
        async with QueryService(engine) as service:
            cache.probe = probe_then_evict
            try:
                raced = await service.submit(SEATTLE_F)
            finally:
                del cache.probe
            repeat = await service.submit(SEATTLE_F)
            return service, raced, repeat

    service, raced, repeat = asyncio.run(main())
    assert probes == ["rules"]  # found, evicted, and never probed again
    assert not raced.cached and raced.rules == warm.rules
    assert raced.trace.leader and raced.outcome.chosen_by == "optimizer"
    # The flight's execution put the entry back: the repeat is a hit.
    assert repeat.cached and repeat.rules == warm.rules
    assert service.stats.cache_short_circuits == 1
    assert service.stats.executions == 2


def test_latency_window_is_bounded_and_exact_for_short_runs():
    stats = ServiceStats()
    short = [((i * 37) % 101) / 1000 for i in range(200)]
    for i, latency in enumerate(short):
        stats.record_serve(latency, float(i))
    ordered = sorted(short)
    for quantile in (0.50, 0.99):
        rank = min(len(ordered) - 1, int(quantile * (len(ordered) - 1) + 0.5))
        assert stats.percentile(quantile) == ordered[rank]
    for i in range(LATENCY_WINDOW + 500):
        stats.record_serve(1.0, 1000.0 + i)
    assert len(stats.latencies_s) == LATENCY_WINDOW
    assert stats.served == 200 + LATENCY_WINDOW + 500
    assert stats.snapshot()["p50_s"] == 1.0  # the old samples aged out


def test_mutation_between_enqueue_and_execute_forces_reexecution(engine):
    """An index mutation while a request is queued is part of the state
    the request is priced and executed against — it is never served
    against the stale generation."""
    engine.enable_cache()
    engine.query(SEATTLE_F)  # populate the cache pre-mutation
    fresh = engine.query(SEATTLE_F, use_cache=False)

    async def main():
        service = QueryService(engine)
        task = asyncio.ensure_future(service.submit(BOSTON))
        await _settle(lambda: service.n_pending == 1)
        # Mutate the index while the request sits in the queue.
        engine.index.bump_generation()
        await service.start()
        served_boston = await task
        served = await service.submit(SEATTLE_F)
        await service.stop()
        return served_boston, served

    served_boston, served = asyncio.run(main())
    # The queued request was priced when its flight ran, after the bump.
    assert served_boston.trace.generation == engine.index.generation
    boston = engine.query(BOSTON, use_cache=False)
    assert served_boston.rules == boston.rules
    assert served_boston.outcome.dq_size == boston.dq_size
    assert not served_boston.cached
    # And a query cached before the mutation is never served stale.
    assert not served.cached
    assert served.rules == fresh.rules


def test_mutation_between_attach_windows_splits_flights(engine):
    """A request arriving after a mutation must not attach to a flight
    priced against the older tree."""
    async def main():
        service = QueryService(engine)
        first = asyncio.ensure_future(service.submit(SEATTLE_F))
        await _settle(lambda: service.n_pending == 1)
        engine.index.bump_generation()
        second = asyncio.ensure_future(service.submit(SEATTLE_F))
        await _settle(lambda: service.n_pending == 2)
        await service.start()
        results = await asyncio.gather(first, second)
        await service.stop()
        return service, results

    service, results = asyncio.run(main())
    assert service.stats.executions == 2  # no cross-generation sharing
    assert service.stats.coalesced == 0
    assert results[0].rules == results[1].rules


def test_use_cache_false_bypasses_coalescing(engine):
    """Satellite fix: a ``use_cache=False`` caller gets a fresh execution,
    not another waiter's shared result — and accepts no attachments."""
    async def main():
        service = QueryService(engine)
        shared = [
            asyncio.ensure_future(service.submit(SEATTLE_F))
            for _ in range(2)
        ]
        bypass = asyncio.ensure_future(
            service.submit(SEATTLE_F, use_cache=False)
        )
        late = asyncio.ensure_future(service.submit(SEATTLE_F))
        # Both attachers on the shared flight, bypass flight queued apart.
        await _settle(
            lambda: service.stats.coalesced == 2 and service.n_pending == 2
        )
        await service.start()
        results = await asyncio.gather(*shared, bypass, late)
        await service.stop()
        return service, results

    service, results = asyncio.run(main())
    # Two executions: one shared flight (leader + 2 attachers), one bypass.
    assert service.stats.executions == 2
    assert service.stats.coalesced == 2
    bypass_result = results[2]
    assert bypass_result.trace.leader
    assert bypass_result.trace.coalesced == 1
    assert all(r.rules == results[0].rules for r in results)


def test_shutdown_drains_inflight_requests(engine):
    async def main():
        service = QueryService(engine)
        tasks = [
            asyncio.ensure_future(service.submit(text))
            for text in (SEATTLE_F, BOSTON, SEATTLE)
        ]
        await _settle(lambda: service.n_pending == 3)
        await service.start()
        await service.stop(drain=True)  # must serve all three first
        return service, await asyncio.gather(*tasks)

    service, results = asyncio.run(main())
    assert service.stats.served == 3
    assert all(len(r.rules) >= 0 for r in results)


def test_shutdown_without_drain_fails_queued(engine):
    async def main():
        service = QueryService(engine)
        task = asyncio.ensure_future(service.submit(SEATTLE_F))
        await _settle(lambda: service.n_pending == 1)
        await service.stop(drain=False)
        with pytest.raises(ServiceClosedError):
            await task
        with pytest.raises(ServiceClosedError):
            await service.submit(BOSTON)

    asyncio.run(main())


def test_stop_without_drain_resolves_every_flight_under_switching(engine):
    """The engine thread pops each flight as it starts it while
    ``stop(drain=False)`` pops the rest: with thread switches forced
    between bytecodes, every flight is still popped exactly once — served
    or failed, none lost, none twice."""
    texts = [
        SEATTLE.replace("minsupport = 0.4", f"minsupport = 0.{300 + i}")
        for i in range(40)
    ]

    async def round_trip():
        service = QueryService(engine)
        await service.start()
        tasks = [asyncio.ensure_future(service.submit(t)) for t in texts]
        await asyncio.sleep(0.002)
        await service.stop(drain=False)
        outcomes = await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), 30
        )
        return service, outcomes

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            service, outcomes = asyncio.run(round_trip())
            served = [o for o in outcomes if isinstance(o, ServedQuery)]
            closed = [o for o in outcomes
                      if isinstance(o, ServiceClosedError)]
            assert len(served) + len(closed) == len(texts)
            assert service.stats.executions == len(served)
            assert service.n_pending == 0 and not service._inflight
    finally:
        sys.setswitchinterval(interval)


def test_misses_run_in_arrival_order(engine):
    """Queued misses run first in, first out, whatever they would cost."""
    order: list[str] = []

    async def main():
        service = QueryService(engine)

        async def one(text):
            await service.submit(text)
            order.append(text)

        texts = (BOSTON, SEATTLE_F, SEATTLE)
        tasks = [asyncio.ensure_future(one(text)) for text in texts]
        await _settle(lambda: service.n_pending == 3)
        await service.start()
        await asyncio.gather(*tasks)
        await service.stop()
        return texts

    assert order == list(asyncio.run(main()))


def test_one_thread_drives_the_engine(engine, monkeypatch):
    """Every ``serve_fresh``, ``append`` and ``delete`` of a service runs
    on its one engine thread — never the loop, never a second thread —
    while distinct misses and mutations are in flight together."""
    engine.enable_cache()
    engine.enable_maintenance(calibrate=False)
    threads: list[tuple[str, str]] = []

    def on_thread(name):
        real = getattr(engine, name)

        def recorded(*args, **kwargs):
            threads.append((name, threading.current_thread().name))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, name, recorded)

    for name in ("serve_fresh", "append", "delete"):
        on_thread(name)
    record = [int(v) for v in engine.table.data[0]]
    texts = [
        SEATTLE_F, BOSTON, SEATTLE,
        SEATTLE_F.replace("0.5", "0.3"), BOSTON.replace("0.4", "0.3"),
        SEATTLE.replace("0.7", "0.6"),
    ]

    async def main():
        async with QueryService(engine) as service:
            await asyncio.gather(
                *(service.submit(text) for text in texts),
                service.ingest([record]),
                service.remove([0]),
            )

    asyncio.run(main())
    names = [name for name, _ in threads]
    assert names.count("serve_fresh") >= 6
    assert set(names) == {"serve_fresh", "append", "delete"}
    (thread,) = {thread for _, thread in threads}
    assert thread.startswith("colarm-serve")


def test_stats_snapshot_shape(engine):
    async def main():
        async with QueryService(engine) as service:
            await asyncio.gather(
                *(service.submit(SEATTLE_F) for _ in range(3)),
                service.submit(BOSTON),
            )
            return service.snapshot()

    snap = asyncio.run(main())
    assert snap["submitted"] == 4
    assert snap["served"] == 4
    assert snap["p50_s"] > 0
    assert snap["p99_s"] >= snap["p50_s"]
    assert snap["throughput_qps"] >= 0
    assert snap["pending"] == 0
    assert snap["inflight_groups"] == 0
    assert set(snap) == {
        "submitted", "served", "errors", "executions", "coalesced",
        "cache_short_circuits", "shed", "p50_s", "p99_s", "throughput_qps",
        "pending", "inflight_groups",
    }


async def _serve_all(service, requests):
    async with service:
        return await serve_all(service, requests)


def test_throughput_counts_from_the_first_submit(engine):
    """One query submitted twice is one flight whose finish answers both
    at the same instant: the rate spans the time since the requests
    arrived, so it is positive, not 0.0."""
    results, snap = asyncio.run(
        _serve_all(QueryService(engine), [SEATTLE, SEATTLE])
    )
    assert all(isinstance(res, ServedQuery) for res in results)
    assert results[0].rules is results[1].rules
    assert (snap["served"], snap["executions"], snap["coalesced"]) == (2, 1, 1)
    assert snap["throughput_qps"] > 0


def test_serve_all_keeps_submission_order(engine):
    requests = [SEATTLE_F, BOSTON, SEATTLE_F, SEATTLE]
    results, snapshot = asyncio.run(
        _serve_all(QueryService(engine), requests)
    )
    assert len(results) == 4
    assert all(isinstance(r, ServedQuery) for r in results)
    assert results[0].rules == results[2].rules
    assert snapshot["served"] == 4


def test_serve_all_reports_shed_requests_in_place(engine):
    """A shed request and one whose text does not parse come back as
    their errors, in place; the others are served."""
    service = QueryService(engine, ServingConfig(max_pending=1))
    results, snapshot = asyncio.run(
        _serve_all(service, [SEATTLE_F, BOSTON, "REPORT garbage;"])
    )
    assert isinstance(results[0], ServedQuery)
    assert isinstance(results[1], ServiceOverloadError)
    assert isinstance(results[2], ParseError)
    assert snapshot["shed"] == 1 and snapshot["errors"] == 1
    assert snapshot["served"] == 1 and snapshot["submitted"] == 3


def test_forced_plan_requests_coalesce_per_plan(engine):
    async def main():
        service = QueryService(engine)
        a = asyncio.ensure_future(service.submit(SEATTLE_F, plan="ARM"))
        b = asyncio.ensure_future(service.submit(SEATTLE_F, plan="ARM"))
        c = asyncio.ensure_future(service.submit(SEATTLE_F, plan="SS-VS"))
        await _settle(lambda: service.n_pending == 2)
        await service.start()
        results = await asyncio.gather(a, b, c)
        await service.stop()
        return service, results

    service, results = asyncio.run(main())
    assert service.stats.executions == 2  # ARM shared, SS-VS its own
    assert results[0].plan is PlanKind.ARM
    assert results[2].plan is PlanKind.SSVS
    assert results[0].rules == results[1].rules


def test_config_validation():
    with pytest.raises(ValueError):
        ServingConfig(max_pending=0)
    assert [f.name for f in fields(ServingConfig)] == ["max_pending"]
