"""The in-process multi-service fallback: same routing surface, one engine.

Also covers the serving-layer hook it depends on: several
:class:`QueryService` instances over one engine must share one engine
lock (none of the engine structures are thread-safe).
"""

from __future__ import annotations

import asyncio
import threading

from repro.cluster import InProcessCluster, ClusterConfig, _focal_key_bytes
from repro.core.engine import Colarm
from repro.dataset.salary import salary_dataset
from repro.serving import QueryService, ServingConfig

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


def test_services_share_an_external_engine_lock():
    engine = Colarm(salary_dataset(), primary_support=0.15)
    lock = threading.Lock()
    a = QueryService(engine, ServingConfig(), engine_lock=lock)
    b = QueryService(engine, ServingConfig(), engine_lock=lock)
    assert a._engine_lock is lock and b._engine_lock is lock
    # Without the parameter each service still gets its own private lock.
    c = QueryService(engine, ServingConfig())
    assert c._engine_lock is not lock


def test_inprocess_cluster_routes_and_matches_the_engine():
    engine = Colarm(salary_dataset(), primary_support=0.15)
    refs = {
        q: Colarm(salary_dataset(), primary_support=0.15).query(q).rules
        for q in (SEATTLE, BOSTON)
    }

    async def main():
        config = ClusterConfig(workers=3, serving=ServingConfig(workers=2))
        async with InProcessCluster(engine, config) as cluster:
            lock = cluster.services[0]._engine_lock
            assert all(s._engine_lock is lock for s in cluster.services)
            seen: dict[str, int] = {}
            for _ in range(2):
                for q in (SEATTLE, BOSTON):
                    res = await cluster.submit(q)
                    assert res.rules == refs[q]
                    key = _focal_key_bytes(
                        engine.parse(q), engine.index.cardinalities
                    )
                    assert res.worker == cluster.ring.route(key)
                    assert seen.setdefault(q, res.worker) == res.worker
            snap = cluster.snapshot()
            assert snap["routed"] == 4
            stats = await cluster.worker_stats()
            assert sorted(s["worker"] for s in stats) == [0, 1, 2]

    asyncio.run(main())


def test_inprocess_concurrent_burst_is_safe_and_complete():
    engine = Colarm(salary_dataset(), primary_support=0.15)
    engine.enable_cache()
    ref = Colarm(salary_dataset(), primary_support=0.15).query(SEATTLE).rules

    async def main():
        config = ClusterConfig(workers=2, serving=ServingConfig(workers=2))
        async with InProcessCluster(engine, config) as cluster:
            results = await asyncio.gather(
                *(cluster.submit(SEATTLE) for _ in range(16))
            )
            assert len(results) == 16
            for res in results:
                assert res.rules == ref

    asyncio.run(main())
