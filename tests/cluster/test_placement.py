"""Where the router sends a miss, and when it sends none.

``ClusterService._place`` picks the least-loaded live worker, reading
each worker's load from the router's own ``_pending`` table; a miss
identical to one in flight (same ``serving.request_key``, its flight
stamped with the same epoch, both with ``use_cache``) is not routed at
all but joins that flight in the service's coalescing table,
``_inflight``.  The unit tests below run on a cluster that was never
started, with its pipes stubbed; the live tests run real worker
processes, as in ``test_cluster_service.py``, and check every answer
byte-identical to a fresh engine.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import os
import signal

import pytest

from repro.cluster import ClusterService, _Pending, _WorkerHandle
from repro.core.query import LocalizedQuery
from repro.errors import QueryError
from repro.serving import QueryService
from tests.cluster.test_cluster_service import (
    BOSTON,
    SEATTLE,
    config,
    fresh_engine,
)

Q = LocalizedQuery({0: frozenset({0})}, minsupp=0.4, minconf=0.7)


@pytest.fixture
def idle(tmp_path):
    """A three-worker router with no processes and an empty ``_pending``."""
    cluster = ClusterService(fresh_engine(), tmp_path, config(workers=3))
    cluster._handles = {w: _WorkerHandle(w) for w in range(3)}
    yield cluster
    cluster._engine_thread.shutdown()


_req_ids = itertools.count(1)


def in_flight(cluster, worker, tag="query"):
    """Stub one outstanding message to ``worker`` in ``_pending``."""
    req_id = next(_req_ids)
    message = (
        ("query", req_id, Q, None, True, 0) if tag == "query"
        else (tag, req_id)
    )
    cluster._pending[req_id] = _Pending(None, worker, message)


def posting(cluster) -> list[tuple[int, tuple]]:
    """Route on the running loop with the pipes stubbed: every posted
    ``(worker, message)`` lands in the returned list."""
    cluster._loop = asyncio.get_running_loop()
    posted: list[tuple[int, tuple]] = []
    cluster._post = lambda worker, message: posted.append((worker, message))
    return posted


def answer(cluster, worker, message, epoch=None) -> None:
    """Deliver the worker answer ``message`` would get."""
    _, req_id, q, plan, _, min_epoch = message
    outcome = fresh_engine().query(q, plan=plan, use_cache=False)
    cluster._on_message(worker, ("ok", req_id, {
        "rules": outcome.rules, "plan": outcome.plan,
        "dq_size": outcome.dq_size, "total_s": 0.0, "worker": worker, "epoch": min_epoch if epoch is None else epoch,
        "generation": 0,
    }))


def test_an_idle_cluster_sends_a_request_to_the_lowest_id(idle):
    for _ in range(3):
        assert idle._place() == 0
    assert idle.snapshot()["outstanding"] == {"0": 0, "1": 0, "2": 0}


def test_a_busier_worker_yields_to_the_least_loaded_lowest_id_first(idle):
    in_flight(idle, 0)
    assert idle._place() == 1                        # 1 and 2 tie: lowest id
    in_flight(idle, 1)
    assert idle._place() == 2
    in_flight(idle, 2)
    assert idle._place() == 0                        # all level: lowest id
    in_flight(idle, 0)
    in_flight(idle, 2)
    assert idle._place() == 1                        # least loaded wins
    assert idle.snapshot()["outstanding"] == {"0": 2, "1": 1, "2": 2}


def test_stats_and_rss_messages_are_not_load(idle):
    for tag in ("stats", "rss", "stats"):
        in_flight(idle, 0, tag=tag)
    assert idle._place() == 0
    assert idle.snapshot()["outstanding"] == {"0": 0, "1": 0, "2": 0}


def test_an_identical_outstanding_request_is_joined_not_routed(idle):
    """Three identical misses cost one routed execution and share its
    answer; anything that changes the answer is another identity and
    routes.  A joiner that gives up leaves the others their answer."""
    variants = [
        (dataclasses.replace(Q, minsupp=0.5), "SS-VS"),
        (dataclasses.replace(Q, minconf=0.8), "SS-VS"),
        (dataclasses.replace(Q, item_attributes=frozenset({1})), "SS-VS"),
        (Q, None),
    ]

    async def main():
        posted = posting(idle)
        same = [
            asyncio.ensure_future(idle.submit(Q, plan="SS-VS"))
            for _ in range(4)
        ]
        others = [
            asyncio.ensure_future(idle.submit(q, plan=plan))
            for q, plan in variants
        ]
        await asyncio.sleep(0)
        assert len(posted) == 1 + len(variants)
        assert [worker for worker, _ in posted] == [0, 1, 2, 0, 1]
        same[3].cancel()
        for worker, message in posted:
            answer(idle, worker, message)
        shared = await asyncio.gather(*same[:3])
        assert [res.trace["leader"] for res in shared] == [True, False, False]
        assert all(res.rules is shared[0].rules for res in shared)
        for res, (q, plan) in zip(await asyncio.gather(*others), variants):
            assert res.trace["leader"]
            assert res.rules == fresh_engine().query(q, plan=plan).rules
        assert idle.route_counts == {0: 2, 1: 2, 2: 1}
        assert idle._inflight == {} and idle._pending == {}
        assert (idle.stats.coalesced, idle.stats.executions) == (3, 5)
        assert idle.stats.served == 7

    asyncio.run(main())


def test_a_request_without_use_cache_never_joins_another(idle):
    """A bypass routes even with an identical miss in flight, and an
    identical miss arriving while a bypass is in flight routes too."""
    async def main():
        posted = posting(idle)
        flags = (False, True, False, True)
        tasks = [
            asyncio.ensure_future(idle.submit(Q, use_cache=use_cache))
            for use_cache in flags
        ]
        await asyncio.sleep(0)
        assert [message[4] for _, message in posted] == [False, True, False]
        for worker, message in posted:
            answer(idle, worker, message)
        results = await asyncio.gather(*tasks)
        assert [res.trace["leader"] for res in results] == [
            True, True, True, False
        ]
        assert results[3].rules is results[1].rules

    asyncio.run(main())


def test_a_miss_after_a_publish_never_joins_an_older_epochs_flight(idle):
    """A publish moves the stamp: an identical miss submitted after it
    routes at the new epoch, and later ones join that flight instead."""
    async def main():
        posted = posting(idle)
        idle._min_epoch = 1
        old = asyncio.ensure_future(idle.submit(Q))
        await asyncio.sleep(0)
        idle._min_epoch = 2                 # what a publish does
        new = [asyncio.ensure_future(idle.submit(Q)) for _ in range(2)]
        await asyncio.sleep(0)
        assert [message[5] for _, message in posted] == [1, 2]
        for worker, message in posted:
            answer(idle, worker, message)
        assert (await old).epoch == 1
        fresh = await asyncio.gather(*new)
        assert [res.epoch for res in fresh] == [2, 2]
        assert [res.trace["leader"] for res in fresh] == [True, False]

    asyncio.run(main())


def test_a_leaders_exception_reaches_every_joiner(idle):
    async def main():
        posted = posting(idle)
        tasks = [asyncio.ensure_future(idle.submit(Q)) for _ in range(3)]
        await asyncio.sleep(0)
        ((worker, message),) = posted
        idle._on_message(
            worker, ("err", message[1], QueryError("empty focal subset"))
        )
        results = await asyncio.gather(*tasks, return_exceptions=True)
        assert all(isinstance(res, QueryError) for res in results)
        assert idle._inflight == {} and idle.stats.errors == 3
        # The failure is not remembered: the next ask routes again.
        retry = asyncio.ensure_future(idle.submit(Q))
        await asyncio.sleep(0)
        assert len(posted) == 2
        answer(idle, *posted[1])
        assert (await retry).rules == fresh_engine().query(Q).rules

    asyncio.run(main())


def test_a_cluster_request_never_passes_through_the_services_submit(
    idle, monkeypatch,
):
    """Both services share one intake, but each ``submit`` is its own:
    the benchmark's tracer times the two methods as separate spans."""
    async def refused(*args, **kwargs):
        raise AssertionError("QueryService.submit called")

    monkeypatch.setattr(QueryService, "submit", refused)

    async def main():
        posted = posting(idle)
        task = asyncio.ensure_future(idle.submit(Q))
        await asyncio.sleep(0)
        answer(idle, *posted[0])
        return await task

    assert asyncio.run(main()).rules == fresh_engine().query(Q).rules


def test_two_concurrent_distinct_misses_use_both_workers(tmp_path):
    engine = fresh_engine()

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            first, second = await asyncio.gather(
                cluster.submit(SEATTLE), cluster.submit(BOSTON)
            )
            assert (first.worker, second.worker) == (0, 1)
            assert first.rules == fresh_engine().query(SEATTLE).rules
            assert second.rules == fresh_engine().query(BOSTON).rules
            snap = cluster.snapshot()
            assert snap["routing"] == {"0": 1, "1": 1}
            assert snap["outstanding"] == {"0": 0, "1": 0}

    asyncio.run(main())


def test_two_concurrent_identical_misses_run_as_one_execution(tmp_path):
    """Four concurrent identical misses: one routed, one executed, four
    byte-identical answers."""
    engine = fresh_engine()
    want = fresh_engine().query(SEATTLE).rules

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            answers = await asyncio.gather(
                *(cluster.submit(SEATTLE) for _ in range(4))
            )
            assert all(res.rules == want for res in answers)
            assert [res.trace["leader"] for res in answers] == [
                True, False, False, False
            ]
            assert {res.worker for res in answers} == {0}
            assert cluster.snapshot()["routed"] == 1
            stats = await cluster.worker_stats()
            assert sum(s["served"] for s in stats) == 1

    asyncio.run(main())


def test_a_retired_workers_orphans_are_re_placed(tmp_path):
    """A request placed on a worker that died past its respawn budget is
    placed again, through ``_place``, on a survivor."""
    engine = fresh_engine()
    want = fresh_engine().query(SEATTLE).rules

    async def main():
        async with ClusterService(
            engine, tmp_path, config(max_respawns=0)
        ) as cluster:
            placed = []
            real = cluster._place

            def spy():
                placed.append(real())
                return placed[-1]

            cluster._place = spy
            process = cluster._handles[0].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(10)
            # Placed on the dead worker before the router saw its EOF.
            res = await asyncio.wait_for(cluster.submit(SEATTLE), 30)
            assert placed == [0, 1]
            assert res.worker == 1 and res.rules == want
            assert cluster.snapshot()["rerouted"] == 1

    asyncio.run(main())
