"""Process-cluster integration: routing, epoch publish, crash recovery.

These tests spawn real worker processes over a published snapshot of the
paper's salary dataset (small enough that a worker loads in well under a
second on one CPU).  No pytest-asyncio in this environment: each test
drives its own loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing as mp
import os
import signal
import threading

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    EpochPublisher,
    open_epoch,
    read_epoch,
)
from repro.core.engine import Colarm
from repro.core.mipindex import build_mip_index
from repro.core.persistence import load_index
from repro.dataset.salary import salary_dataset
from repro.dataset.table import RelationalTable
from repro.errors import DataError, QueryError
from repro.itemsets.rules import RuleBlock

SEATTLE = (
    "REPORT LOCALIZED ASSOCIATION RULES FROM salary "
    "WHERE RANGE Location = (Seattle) "
    "HAVING minsupport = 0.4 AND minconfidence = 0.7;"
)
BOSTON = (
    "REPORT LOCALIZED ASSOCIATION RULES FROM salary "
    "WHERE RANGE Location = (Boston) "
    "HAVING minsupport = 0.4 AND minconfidence = 0.7;"
)
SEATTLE_F = (
    "REPORT LOCALIZED ASSOCIATION RULES FROM salary "
    "WHERE RANGE Location = (Seattle) AND Gender = (F) "
    "HAVING minsupport = 0.5 AND minconfidence = 0.8;"
)
QUERIES = (SEATTLE, BOSTON, SEATTLE_F)
#: No salary record is a man in Seattle: an empty focal subset.
EMPTY = (
    "REPORT LOCALIZED ASSOCIATION RULES FROM salary "
    "WHERE RANGE Location = (Seattle) AND Gender = (M) "
    "HAVING minsupport = 0.4 AND minconfidence = 0.7;"
)


def fresh_engine() -> Colarm:
    return Colarm(salary_dataset(), primary_support=0.15)


def config(workers: int = 2, **kw) -> ClusterConfig:
    return ClusterConfig(workers=workers, **kw)


async def _settle(predicate, timeout: float = 10.0) -> None:
    """Poll until ``predicate()`` holds (crash recovery runs as a task)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never settled")
        await asyncio.sleep(0.01)


def test_routing_is_sticky_and_byte_identical(tmp_path):
    engine = fresh_engine()
    refs = {q: fresh_engine().query(q).rules for q in QUERIES}

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            seen: dict[str, int] = {}
            for _ in range(3):
                for q in QUERIES:
                    res = await cluster.submit(q)
                    assert res.rules == refs[q]
                    # Sequential traffic finds every worker idle: it lands
                    # on the lowest id, so placement is predictable from
                    # the outside.
                    assert res.worker == 0
                    assert seen.setdefault(q, res.worker) == res.worker
            snap = cluster.snapshot()
            assert snap["routed"] == 9
            assert snap["routing"] == {"0": 9, "1": 0}
            stats = await cluster.worker_stats()
            assert sorted(s["worker"] for s in stats) == [0, 1]
            assert [s["served"] for s in stats] == [9, 0]

    asyncio.run(main())


def test_responses_are_blocks_equal_rule_for_rule_to_the_engines(tmp_path):
    """What crosses the pipe is the engine's block: same rules, same
    order, same floats — rebuilt as read-only columns over one buffer."""
    engine = fresh_engine()
    reference = fresh_engine()

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            for q in QUERIES:
                for _ in range(2):  # workers are cacheless: two executions
                    res = await cluster.submit(q)
                    want = reference.query(q, use_cache=False).rules
                    assert isinstance(res.rules, RuleBlock)
                    assert isinstance(want, RuleBlock)
                    assert res.rules == want and want == res.rules
                    assert list(res.rules) == list(want)
                    assert len(res.rules) == len(want)
                    assert not res.rules.support.flags.writeable
                    assert len(res.rules.sources) == \
                        len(set(res.rules.src.tolist()))

    asyncio.run(main())


def test_crash_respawn_serves_every_request_byte_identically(tmp_path):
    engine = fresh_engine()
    refs = {q: fresh_engine().query(q).rules for q in QUERIES}

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            stream = [QUERIES[i % 3] for i in range(12)]
            tasks = [
                asyncio.ensure_future(cluster.submit(q)) for q in stream
            ]
            await asyncio.sleep(0.02)
            for handle in cluster._handles.values():
                os.kill(handle.process.pid, signal.SIGKILL)
                break  # one victim
            results = await asyncio.gather(*tasks)
            # Zero requests lost, every response byte-identical.
            assert len(results) == len(stream)
            for res, q in zip(results, stream):
                assert res.rules == refs[q]
            await _settle(lambda: cluster.snapshot()["crashes"] >= 1)
            await _settle(lambda: cluster.snapshot()["respawns"] >= 1)
            # The cluster still serves after recovery.
            res = await cluster.submit(SEATTLE)
            assert res.rules == refs[SEATTLE]

    asyncio.run(main())


def test_respawn_budget_exhausted_reroutes_to_survivors(tmp_path):
    engine = fresh_engine()
    refs = {q: fresh_engine().query(q).rules for q in QUERIES}

    async def main():
        cfg = config(max_respawns=0)
        async with ClusterService(engine, tmp_path, cfg) as cluster:
            victim = 0
            tasks = [
                asyncio.ensure_future(cluster.submit(q))
                for q in (SEATTLE, BOSTON, SEATTLE_F) * 2
            ]
            await asyncio.sleep(0.02)
            os.kill(cluster._handles[victim].process.pid, signal.SIGKILL)
            results = await asyncio.gather(*tasks)
            for res, q in zip(results, (SEATTLE, BOSTON, SEATTLE_F) * 2):
                assert res.rules == refs[q]
            # The victim is retired; the survivor takes every request.
            await _settle(lambda: victim not in cluster.workers)
            res = await cluster.submit(SEATTLE)
            assert res.rules == refs[SEATTLE]
            assert res.worker != victim

    asyncio.run(main())


def test_a_request_the_worker_cannot_answer_raises_and_the_worker_serves_on(
    tmp_path,
):
    """An empty focal subset raises inside the worker; the router hands
    the caller that ``QueryError`` and the same worker, still alive,
    answers the next request byte-identically."""
    engine = fresh_engine()
    with pytest.raises(QueryError):
        fresh_engine().query(EMPTY)

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            # An idle cluster places both on the lowest id: one worker.
            with pytest.raises(QueryError):
                await cluster.submit(EMPTY)
            res = await cluster.submit(SEATTLE)
            assert res.worker == 0
            assert res.rules == fresh_engine().query(SEATTLE).rules
            assert cluster.snapshot()["crashes"] == 0

    asyncio.run(main())


@pytest.mark.parametrize("failure", ["oserror", "ready_timeout"])
def test_a_failed_respawn_retires_the_slot_and_reroutes(tmp_path, failure):
    """A crashed worker whose respawn fails — the fork raises, or the new
    worker misses its ready deadline — is retired, and the request it
    held is answered by a survivor, byte-identically."""
    engine = fresh_engine()
    want = fresh_engine().query(SEATTLE).rules

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            victim = 0  # where an idle cluster places the next miss
            if failure == "oserror":
                def spawn(worker_id):
                    raise OSError("fork failed")

                cluster._spawn = spawn
            else:
                cluster.config = dataclasses.replace(
                    cluster.config, ready_timeout_s=0.0
                )
            process = cluster._handles[victim].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(10)
            # Routed to the dead worker before the router saw its EOF:
            # in flight when the crash is handled.
            res = await asyncio.wait_for(cluster.submit(SEATTLE), 30)
            assert res.worker != victim
            assert res.rules == want
            snap = cluster.snapshot()
            assert victim not in cluster.workers
            assert victim not in snap["workers"]
            assert (snap["crashes"], snap["respawns"], snap["rerouted"]) == (
                1, 1, 1
            )
            assert not any(
                p.name == f"colarm-worker-{victim}" and p.is_alive()
                for p in mp.active_children()
            )

    asyncio.run(main())


def test_publish_folds_pending_mutations_into_the_snapshot(tmp_path):
    """A publish with a fold in flight and mutations pending lands them
    all: the snapshot's arrays are a fresh build over the live rows, main
    then delta, and its generation continues past the pre-fold one."""
    salary = salary_dataset()
    engine = fresh_engine()
    engine.enable_maintenance(max_delta_fraction=0.99, calibrate=False)
    appended = salary.data[:3].tolist()
    engine.append(appended)
    assert engine.maintenance.begin_recompaction()
    engine.maintenance.delete([1, 4])  # lands while the fold builds
    before = engine.index.generation
    info = EpochPublisher(engine, tmp_path).publish()

    live = np.vstack([np.delete(salary.data, [1, 4], axis=0), appended])
    expected = build_mip_index(RelationalTable(salary.schema, live), 0.15)
    snapshot, _ = load_index(info.snapshot_path(tmp_path))
    assert np.array_equal(snapshot.table.data, live)
    for name in ("mip_tidset_matrix", "global_counts"):
        assert np.array_equal(
            getattr(snapshot, name), getattr(expected, name)
        ), name
    assert np.array_equal(
        snapshot.stats.mip_fixed_values, expected.stats.mip_fixed_values
    )
    assert info.generation == engine.index.generation > before
    assert engine.maintenance.n_pending == 0
    assert not engine.maintenance.recompacting


def test_epoch_publish_never_serves_stale_or_torn(tmp_path):
    """Interleaved ingest/publish with concurrent queries: every response
    carries the generation of a *published* epoch, and no response lands
    at an epoch older than the one current when it was submitted."""
    engine = fresh_engine()
    engine.enable_cache()
    salary = salary_dataset()

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            published = {
                cluster.publisher.epoch: engine.index.generation
            }
            responses = []

            async def query_burst(n):
                stamped = cluster._min_epoch
                results = await asyncio.gather(
                    *(cluster.submit(QUERIES[i % 3]) for i in range(n))
                )
                for res in results:
                    responses.append((stamped, res))

            for round_no in range(3):
                burst = asyncio.ensure_future(query_burst(4))
                rows = salary.data[round_no::7][:3].tolist()
                await cluster.ingest(rows, publish=True)
                published[cluster.publisher.epoch] = engine.index.generation
                await burst
                await query_burst(2)

            for stamped, res in responses:
                assert res.epoch >= stamped, "a stale epoch was served"
                assert published[res.epoch] == res.generation, (
                    "a response carries a generation no published epoch has"
                )

            # The final answers equal a cold rebuild over the live records.
            reference = Colarm(
                engine.index.table, primary_support=0.15
            )
            for q in QUERIES:
                res = await cluster.submit(q)
                assert res.epoch == cluster.publisher.epoch
                assert res.rules == reference.query(q).rules

    asyncio.run(main())


def test_a_worker_loads_cacheless_and_ignores_a_legacy_cache_sidecar(
    tmp_path,
):
    """A worker opens the published snapshot only, with no rule cache of
    its own, and an epoch file that still names a cache sidecar stays
    servable."""
    engine = fresh_engine()
    info = EpochPublisher(engine, tmp_path).publish()
    legacy = dict(info.as_dict(), cache=info.snapshot.replace(
        ".colarm.npz", ".cache.npz"
    ))
    (tmp_path / "EPOCH.json").write_text(json.dumps(legacy))
    assert read_epoch(tmp_path) == info
    opened, worker_engine = open_epoch(tmp_path)
    assert opened == info and worker_engine.cache is None
    assert worker_engine.query(SEATTLE).rules == \
        fresh_engine().query(SEATTLE).rules
    with pytest.raises(DataError, match="epoch 2 required but 1"):
        open_epoch(tmp_path, min_epoch=2)


def test_ingest_remove_and_publish_run_on_one_writer_thread(tmp_path):
    """Every touch of the writer engine — the start's publish, ingests,
    removes and publishes issued together — runs on the cluster's one
    writer thread: the service's engine thread."""
    engine = fresh_engine()
    record = [int(v) for v in engine.table.data[0]]
    threads: list[tuple[str, str]] = []

    def on_thread(owner, name):
        real = getattr(owner, name)

        def recorded(*args, **kwargs):
            threads.append((name, threading.current_thread().name))
            return real(*args, **kwargs)

        setattr(owner, name, recorded)

    async def main():
        cluster = ClusterService(engine, tmp_path, config(workers=1))
        for owner, name in ((engine, "append"), (engine, "delete"),
                            (cluster.publisher, "publish")):
            on_thread(owner, name)
        async with cluster:
            await asyncio.gather(
                cluster.ingest([record], publish=False),
                cluster.remove([0], publish=False),
                cluster.publish(),
                cluster.ingest([record]),
            )
            res = await cluster.submit(SEATTLE)
            return cluster, res

    cluster, res = asyncio.run(main())
    assert sorted(name for name, _ in threads) == [
        "append", "append", "delete", "publish", "publish", "publish",
    ]
    (thread,) = {thread for _, thread in threads}
    assert thread.startswith("colarm-serve")
    assert res.epoch == cluster.publisher.epoch == 3


def test_worker_rss_reports_private_pages(tmp_path):
    engine = fresh_engine()

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            reports = await cluster.worker_rss()
            assert sorted(r["worker"] for r in reports) == [0, 1]
            for report in reports:
                if report["private_kb"] is None:
                    pytest.skip("no /proc/self/smaps_rollup on this host")
                assert report["private_kb"] > 0
                assert report["unique_kb"] >= 0

    asyncio.run(main())


def test_submit_after_stop_raises(tmp_path):
    from repro.errors import ServiceClosedError

    engine = fresh_engine()

    async def main():
        cluster = ClusterService(engine, tmp_path, config())
        await cluster.start()
        await cluster.stop()
        with pytest.raises(ServiceClosedError):
            await cluster.submit(SEATTLE)

    asyncio.run(main())


def test_publish_after_stop_raises(tmp_path):
    """A stopped cluster publishes nothing: no snapshot is written and
    the epoch does not advance with no worker left to serve it."""
    from repro.errors import ServiceClosedError

    engine = fresh_engine()

    async def main():
        cluster = ClusterService(engine, tmp_path, config())
        await cluster.start()
        await cluster.stop()
        with pytest.raises(ServiceClosedError):
            await cluster.publish()

    asyncio.run(main())
    assert read_epoch(tmp_path).epoch == 1
    assert sorted(p.name for p in tmp_path.glob("snapshot-*")) == [
        "snapshot-000001.colarm.npz"
    ]


@pytest.mark.parametrize("text,reason", [
    ('{"epoch": 1, "generation": 0, "n_records": 5}', "'snapshot'"),
    ('[1, "snapshot-000001.colarm.npz", 0, 5]', "TypeError"),
    ('{"epoch": "x", "snapshot": "s", "generation": 0, "n_records": 5}',
     "ValueError"),
], ids=["missing-field", "list", "non-integer-epoch"])
def test_a_malformed_epoch_file_is_a_data_error(tmp_path, text, reason):
    """A readable ``EPOCH.json`` that is not a complete epoch record is
    refused as a ``DataError`` naming the file, never a bare exception."""
    path = tmp_path / "EPOCH.json"
    path.write_text(text)
    with pytest.raises(DataError, match="EPOCH.json") as refused:
        read_epoch(tmp_path)
    assert reason in str(refused.value)


def test_burst_larger_than_the_pipes_is_served(tmp_path):
    """The router's loop both writes requests into a worker's pipe and
    reads its answers: a burst that fills both directions must not leave
    router and worker each blocked in ``send`` waiting for the other to
    read.  ``use_cache=False``: identical misses would otherwise share
    one routed execution.  Run off-thread so a regression fails the
    test, not the suite."""
    engine = fresh_engine()
    reference = fresh_engine().query(SEATTLE).rules
    n_requests = 2000
    served: list = []

    async def main():
        async with ClusterService(engine, tmp_path, config(workers=1)) as cluster:
            served.extend(await asyncio.gather(*(
                cluster.submit(SEATTLE, use_cache=False)
                for _ in range(n_requests)
            )))

    runner = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive(), "router and worker deadlocked on full pipes"
    assert len(served) == n_requests
    assert all(res.rules == reference for res in served)


def test_a_failed_reload_keeps_serving_and_reports_to_the_caller(tmp_path):
    """An ``EPOCH.json`` naming a missing snapshot: the reload broadcast
    fails inside each worker, which keeps its old epoch; a request
    stamped with the broken epoch gets the ``DataError`` as its answer;
    a valid publish after it brings byte-identical answers back."""
    engine = fresh_engine()
    refs = {q: fresh_engine().query(q).rules for q in QUERIES}

    async def main():
        async with ClusterService(engine, tmp_path, config()) as cluster:
            assert (await cluster.submit(SEATTLE)).rules == refs[SEATTLE]
            publisher = cluster.publisher
            real = publisher.publish

            def broken():
                info = dataclasses.replace(
                    read_epoch(tmp_path), epoch=publisher.epoch + 1,
                    snapshot="snapshot-missing.colarm.npz",
                )
                (tmp_path / "EPOCH.json").write_text(
                    json.dumps(info.as_dict())
                )
                publisher.epoch = info.epoch
                return info

            publisher.publish = broken
            await cluster.publish()
            publisher.publish = real
            for q in QUERIES:
                with pytest.raises(DataError, match="snapshot-missing"):
                    await cluster.submit(q)
            assert cluster.snapshot()["crashes"] == 0
            await cluster.publish()
            for q in QUERIES:
                res = await cluster.submit(q)
                assert res.epoch == cluster.publisher.epoch == 3
                assert res.rules == refs[q]
            stats = await cluster.worker_stats()
            assert all(s["epoch"] == 3 for s in stats)

    asyncio.run(main())
