"""Where the router sends a miss: its ring home, unless load overrules it.

``ClusterService._place`` reads each worker's load from the router's own
``_pending`` table.  The unit tests below stub that table on a cluster
that was never started; the live tests run real worker processes, as in
``test_cluster_service.py``, and check every answer byte-identical to a
fresh engine.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import os
import signal
import time

import pytest

from repro.cluster import ClusterService, _focal_key_bytes, _Pending
from repro.core.query import LocalizedQuery
from repro.serving import QueryService
from tests.cluster.test_cluster_service import (
    QUERIES,
    SEATTLE,
    config,
    fresh_engine,
)

Q = LocalizedQuery({0: frozenset({0})}, minsupp=0.4, minconf=0.7)


@pytest.fixture
def idle(tmp_path):
    """A three-worker router with no processes and an empty ``_pending``."""
    cluster = ClusterService(fresh_engine(), tmp_path, config(workers=3))
    for worker_id in range(3):
        cluster.ring.add(worker_id)
    yield cluster
    cluster._writer.shutdown()


_req_ids = itertools.count(1)


def in_flight(cluster, worker, key=b"elsewhere", q=Q, plan=None,
              use_cache=True, tag="query"):
    """Stub one outstanding message to ``worker`` in ``_pending``."""
    req_id = next(_req_ids)
    if tag == "query":
        message = ("query", req_id, q, plan, use_cache, 0)
    else:
        message, key = (tag, req_id), None
    cluster._pending[req_id] = _Pending(None, worker, message, key)


def key_at(cluster, home: int) -> bytes:
    """A key the ring routes to ``home``."""
    return next(
        key for key in (f"key-{i}".encode() for i in itertools.count())
        if cluster.ring.route(key) == home
    )


def test_an_idle_cluster_sends_a_request_home(idle):
    for home in range(3):
        assert idle._place(key_at(idle, home), Q, None, True) == home
    assert idle.n_spilled == 0


def test_a_busier_home_spills_to_the_least_loaded_lowest_id_first(idle):
    key = key_at(idle, 2)
    in_flight(idle, 2)
    assert idle._place(key, Q, None, True) == 0      # 0 and 1 tie: lowest id
    in_flight(idle, 0)
    assert idle._place(key, Q, None, True) == 1      # least loaded wins
    in_flight(idle, 1)
    assert idle._place(key, Q, None, True) == 2      # all level: home
    assert idle.n_spilled == 2
    snap = idle.snapshot()
    assert snap["spilled"] == 2
    assert snap["outstanding"] == {"0": 1, "1": 1, "2": 1}


def test_an_identical_outstanding_request_keeps_the_new_one_home(idle):
    key = key_at(idle, 1)
    in_flight(idle, 1, key=key, plan="SS-VS")
    in_flight(idle, 1)
    assert idle._place(key, Q, "SS-VS", True) == 1
    # Anything that changes the answer is another identity: it spills.
    for q, plan in [
        (dataclasses.replace(Q, minsupp=0.5), "SS-VS"),
        (dataclasses.replace(Q, minconf=0.8), "SS-VS"),
        (dataclasses.replace(Q, item_attributes=frozenset({1})), "SS-VS"),
        (Q, None),
    ]:
        assert idle._place(key, q, plan, True) == 0
    assert idle.n_spilled == 4


def test_a_request_without_use_cache_never_joins_another(idle):
    key = key_at(idle, 1)
    in_flight(idle, 1, key=key)
    assert idle._place(key, Q, None, False) == 0     # the new one lacks it
    idle._pending.clear()
    in_flight(idle, 1, key=key, use_cache=False)
    assert idle._place(key, Q, None, True) == 0      # the outstanding one
    assert idle.n_spilled == 2


def test_stats_and_rss_messages_are_not_load(idle):
    for tag in ("stats", "rss", "stats"):
        in_flight(idle, 0, tag=tag)
    assert idle._place(key_at(idle, 0), Q, None, True) == 0
    assert idle.n_spilled == 0
    assert idle.snapshot()["outstanding"] == {"0": 0, "1": 0, "2": 0}


def _two_sharing_a_home(cluster, engine):
    """Two distinct queries the ring sends to the same worker."""
    homes = {}
    for text in QUERIES:
        home = cluster.ring.route(
            _focal_key_bytes(engine.parse(text), engine.index.cardinalities)
        )
        if home in homes:
            return home, homes[home], text
        homes[home] = text
    raise AssertionError("three queries over two workers share no home")


def test_two_concurrent_distinct_misses_with_one_home_use_both_workers(
    tmp_path,
):
    engine = fresh_engine()

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            home, a, b = _two_sharing_a_home(cluster, engine)
            first, second = await asyncio.gather(
                cluster.submit(a), cluster.submit(b)
            )
            assert first.worker == home and second.worker == 1 - home
            assert first.rules == fresh_engine().query(a).rules
            assert second.rules == fresh_engine().query(b).rules
            snap = cluster.snapshot()
            assert snap["spilled"] == 1
            assert snap["routing"] == {"0": 1, "1": 1}
            assert snap["outstanding"] == {"0": 0, "1": 0}

    asyncio.run(main())


def test_two_concurrent_identical_misses_run_as_one_execution(
    tmp_path, monkeypatch
):
    """Held on the engine thread (the forked workers inherit the patch),
    the second miss is sure to find the first one in flight."""
    real = QueryService._execute

    def slow(self, flight):
        time.sleep(0.2)
        return real(self, flight)

    monkeypatch.setattr(QueryService, "_execute", slow)
    engine = fresh_engine()
    want = fresh_engine().query(SEATTLE).rules

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            home = cluster.ring.route(_focal_key_bytes(
                engine.parse(SEATTLE), engine.index.cardinalities
            ))
            answers = await asyncio.gather(
                cluster.submit(SEATTLE), cluster.submit(SEATTLE)
            )
            assert [res.worker for res in answers] == [home, home]
            assert all(res.rules == want for res in answers)
            assert all(res.trace["coalesced"] == 2 for res in answers)
            assert sorted(res.trace["leader"] for res in answers) == [
                False, True
            ]
            assert cluster.snapshot()["spilled"] == 0
            stats = {s["worker"]: s for s in await cluster.worker_stats()}
            assert stats[home]["executions"] == 1
            assert stats[1 - home]["executions"] == 0

    asyncio.run(main())


def test_a_retired_workers_orphans_are_re_placed(tmp_path):
    """A request routed to a worker that died past its respawn budget is
    placed again, through ``_place``, on a survivor."""
    engine = fresh_engine()
    want = fresh_engine().query(SEATTLE).rules

    async def main():
        async with ClusterService(
            engine, tmp_path, config(max_respawns=0)
        ) as cluster:
            key = _focal_key_bytes(
                engine.parse(SEATTLE), engine.index.cardinalities
            )
            victim = cluster.ring.route(key)
            placed = []
            real = cluster._place

            def spy(*args):
                placed.append((args[0], real(*args)))
                return placed[-1][1]

            cluster._place = spy
            process = cluster._handles[victim].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(10)
            # Placed on the dead worker before the router saw its EOF.
            res = await asyncio.wait_for(cluster.submit(SEATTLE), 30)
            assert placed == [(key, victim), (key, 1 - victim)]
            assert res.worker == 1 - victim and res.rules == want
            assert cluster.snapshot()["rerouted"] == 1

    asyncio.run(main())
