"""The cluster's one rule cache, in the router.

A repeat is served from the writer engine's cache before routing — no
pipe, no worker — and only a worker answer served at the epoch the
router stamps may fill it.  Each test drives its own loop with
``asyncio.run`` over real worker processes, as in
``test_cluster_service.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import ClusterConfig, ClusterService
from repro.core.engine import Colarm
from repro.core.query import LocalizedQuery
from repro.dataset.salary import salary_dataset
from repro.errors import QueryError
from repro.serving import serve_all
from tests.cluster.test_cluster_service import (
    BOSTON,
    QUERIES,
    SEATTLE,
    _settle,
    fresh_engine,
)


def cached_engine() -> Colarm:
    return fresh_engine().enable_cache()


def cluster_over(engine: Colarm, directory) -> ClusterService:
    return ClusterService(engine, directory, ClusterConfig(workers=2))


def test_a_repeat_is_served_by_the_router_byte_identically(tmp_path):
    """The repeat is ``cached``, routes nothing, carries the router's
    epoch and generation, and is the first answer's very block; the
    router's snapshot reports the cache's ledger."""
    engine = cached_engine()

    async def main():
        async with cluster_over(engine, tmp_path) as cluster:
            for q in QUERIES:
                first = await cluster.submit(q)
                assert not first.cached and first.worker is not None
                routed = dict(cluster.route_counts)
                repeat = await cluster.submit(q)
                assert repeat.cached and repeat.worker is None
                assert cluster.route_counts == routed
                assert repeat.rules == first.rules
                assert list(repeat.rules) == list(first.rules)
                assert repeat.plan is first.plan
                assert repeat.epoch == first.epoch == cluster.publisher.epoch
                assert repeat.generation == first.generation
                assert repeat.trace["cached"]
                assert repeat.trace["total_s"] >= 0.0
            return cluster.snapshot()

    snap = asyncio.run(main())
    assert snap["routed"] == len(QUERIES)
    ledger = snap["cache"]
    assert (ledger["probes"], ledger["rule_hits"], ledger["misses"]) == (
        2 * len(QUERIES), len(QUERIES), len(QUERIES)
    )
    assert ledger["insertions"] == len(QUERIES)
    assert ledger["current_bytes"] > 0


def test_a_publish_empties_the_router_cache_and_it_refills(tmp_path):
    """A publish's fold empties the router's cache: the first ask after it
    routes, at the new epoch, and equals an engine rebuilt from the grown
    rows; its repeat is a router hit with that same answer."""
    engine = cached_engine()

    async def main():
        async with cluster_over(engine, tmp_path) as cluster:
            for _ in range(2):
                assert (await cluster.submit(SEATTLE)).epoch == 1
            await cluster.ingest(
                salary_dataset().data[:2].tolist(), publish=True
            )
            epoch = cluster.publisher.epoch
            assert epoch == 2 and len(engine.cache) == 0
            assert cluster.snapshot()["cache"]["stale_drops"] >= 1
            want = Colarm(
                engine.index.table, primary_support=0.15
            ).query(SEATTLE).rules
            first = await cluster.submit(SEATTLE)
            assert first.epoch == epoch and not first.cached
            assert first.rules == want
            repeat = await cluster.submit(SEATTLE)
            assert repeat.epoch == epoch and repeat.cached
            assert repeat.worker is None and repeat.rules == want
            assert repeat.generation == engine.index.generation

    asyncio.run(main())


@pytest.mark.parametrize("grow", [True, False], ids=["ingest", "publish"])
def test_an_answer_older_than_a_publish_is_not_inserted(tmp_path, grow):
    """A worker answer that arrives after a publish it predates is handed
    to its caller but never enters the cache — with rows ingested, or at
    an unchanged generation — so the next ask routes again."""
    engine = cached_engine()

    async def main():
        async with cluster_over(engine, tmp_path) as cluster:
            held: list = []
            deliver = cluster._on_message

            def hold(worker_id, msg):
                if msg[0] == "ok":
                    held.append((worker_id, msg))
                else:
                    deliver(worker_id, msg)

            cluster._on_message = hold
            pending = asyncio.ensure_future(cluster.submit(SEATTLE))
            await _settle(lambda: held)
            if grow:
                await cluster.ingest(
                    salary_dataset().data[:2].tolist(), publish=True
                )
            else:
                await cluster.publish()
            cluster._on_message = deliver
            for worker_id, msg in held:
                deliver(worker_id, msg)
            stale = await pending
            assert stale.epoch == 1 < cluster.publisher.epoch
            assert len(engine.cache) == 0
            routed = sum(cluster.route_counts.values())
            res = await cluster.submit(SEATTLE)
            assert not res.cached and res.epoch == cluster.publisher.epoch
            assert sum(cluster.route_counts.values()) == routed + 1
            want = Colarm(
                engine.index.table, primary_support=0.15
            ).query(SEATTLE).rules
            assert res.rules == want

    asyncio.run(main())


def test_forced_plans_and_families_are_keyed_apart(tmp_path):
    """A forced plan is served only its own family's entry, an ARM answer
    never stands in for a forced MIP plan, and ``use_cache=False``
    always routes and fills nothing."""
    engine = cached_engine()
    reference = fresh_engine()

    async def main():
        async with cluster_over(engine, tmp_path) as cluster:
            def routed() -> int:
                return sum(cluster.route_counts.values())

            arm = await cluster.submit(SEATTLE, plan="ARM")
            assert not arm.cached and routed() == 1
            sev = await cluster.submit(SEATTLE, plan="S-E-V")
            assert not sev.cached and routed() == 2
            for plan, first in (("ARM", arm), ("S-E-V", sev)):
                repeat = await cluster.submit(SEATTLE, plan=plan)
                assert repeat.cached and repeat.plan.value == plan
                assert repeat.rules == first.rules == reference.query(
                    SEATTLE, plan=plan, use_cache=False
                ).rules
            assert routed() == 2
            insertions = engine.cache.stats.insertions
            for plan in (None, "ARM"):
                res = await cluster.submit(SEATTLE, plan=plan, use_cache=False)
                assert not res.cached and res.worker is not None
            assert routed() == 4
            assert engine.cache.stats.insertions == insertions

    asyncio.run(main())


def test_an_engine_without_a_cache_routes_every_request(tmp_path):
    engine = fresh_engine()

    async def main():
        async with cluster_over(engine, tmp_path) as cluster:
            for _ in range(3):
                res = await cluster.submit(BOSTON)
                assert not res.cached and res.worker is not None
            return cluster.snapshot()

    snap = asyncio.run(main())
    assert snap["routed"] == 3 and snap["cache"] is None


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
def test_an_invalid_request_is_a_query_error_before_routing(tmp_path, cache):
    """A request naming an attribute the schema lacks is refused as the
    ``QueryError`` an in-process service raises — before it is keyed —
    counts in the ledger's ``errors``, and comes back in its place from
    ``serve_all``."""
    engine = cached_engine() if cache else fresh_engine()
    bad = LocalizedQuery({99: frozenset({0})}, 0.4, 0.7)

    async def main():
        async with cluster_over(engine, tmp_path) as cluster:
            return await serve_all(cluster, [bad, SEATTLE])

    (refused, served), snap = asyncio.run(main())
    assert isinstance(refused, QueryError)
    assert "range attribute index 99 out of range" in str(refused)
    assert served.rules == fresh_engine().query(SEATTLE).rules
    assert snap["routed"] == 1
    assert (snap["submitted"], snap["errors"], snap["served"]) == (2, 1, 1)


def test_the_cluster_keeps_the_services_ledger(tmp_path):
    """One stats ledger for both deployments: a malformed request counts
    in ``errors``, eight concurrent identical misses are one worker
    execution and seven joins, and a repeat is a cache short circuit —
    next to the router's own counters in ``snapshot()``."""
    engine = cached_engine()

    async def main():
        async with cluster_over(engine, tmp_path) as cluster:
            with pytest.raises(QueryError):
                await cluster.submit("REPORT garbage;")
            answers = await asyncio.gather(
                *(cluster.submit(SEATTLE) for _ in range(8))
            )
            repeat = await cluster.submit(SEATTLE)
            stats = await cluster.worker_stats()
            return answers, repeat, stats, cluster.snapshot()

    answers, repeat, stats, snap = asyncio.run(main())
    want = fresh_engine().query(SEATTLE).rules
    assert all(res.rules == want for res in answers) and repeat.cached
    assert [res.trace.leader for res in answers] == [True] + [False] * 7
    assert all(res.trace.coalesced == 8 for res in answers)
    assert sum(s["served"] for s in stats) == 1
    assert (snap["submitted"], snap["served"], snap["errors"]) == (10, 9, 1)
    assert (snap["executions"], snap["coalesced"]) == (2, 7)
    assert snap["cache_short_circuits"] == 1
    assert snap["p99_s"] >= snap["p50_s"] > 0 and snap["throughput_qps"] > 0
    assert snap["routed"] == 1 and snap["routing"] == {"0": 1, "1": 0}
    assert {"workers", "respawns", "epoch", "cache"} <= set(snap)
