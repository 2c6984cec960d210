"""The bundled FIMI fixture end-to-end through the cluster path.

``micro_chess.dat`` -> relational table -> writer engine -> published
snapshot -> two mmap-shared workers -> a mixed query/ingest stream, with
every response checked byte-identical against a cold single-engine
reference at the same data state.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from repro.cluster import ClusterConfig, ClusterService
from repro.core.engine import Colarm
from repro.core.query import LocalizedQuery
from repro.dataset.loaders import load_fimi, transactions_to_table

FIXTURE = Path(__file__).parent / "fixtures" / "micro_chess.dat"
ATTR_ITEMS = {"a0": (1, 2, 3), "a1": (4, 5, 6), "a2": (7, 8),
              "a3": (9, 10, 11)}

QUERY_A2 = LocalizedQuery({2: frozenset({0})}, 0.2, 0.6)
QUERY_A0 = LocalizedQuery({0: frozenset({0, 1})}, 0.25, 0.6)
QUERY_A3 = LocalizedQuery({3: frozenset({1, 2})}, 0.2, 0.5)
STREAM = (QUERY_A2, QUERY_A0, QUERY_A3)


def fixture_table():
    amap = {
        item: name for name, items in ATTR_ITEMS.items() for item in items
    }
    return transactions_to_table(load_fimi(FIXTURE), amap)


def test_micro_chess_through_the_cluster(tmp_path):
    table = fixture_table()
    engine = Colarm(table, primary_support=0.05)
    engine.enable_cache()

    async def main():
        config = ClusterConfig(workers=2)
        async with ClusterService(engine, tmp_path, config) as cluster:
            # Phase 1: queries over the published fixture.
            cold = Colarm(fixture_table(), primary_support=0.05)
            for query in STREAM * 2:
                res = await cluster.submit(query)
                assert res.rules == cold.query(query).rules

            # Phase 2: ingest a batch (recycled fixture rows), publish,
            # and serve the stream again — now against the grown data.
            new_rows = table.data[:10].tolist()
            await cluster.ingest(new_rows, publish=True)
            grown = Colarm(engine.index.table, primary_support=0.05)
            assert engine.index.table.n_records == table.n_records + 10
            for query in STREAM:
                res = await cluster.submit(query)
                assert res.epoch == cluster.publisher.epoch
                assert res.rules == grown.query(query).rules

            # The stream crossed both workers' key spaces or landed on
            # one — either way, the routing account adds up.  Phase 1's
            # repeats never left the router.
            snap = cluster.snapshot()
            assert snap["routed"] == 6
            assert sum(snap["routing"].values()) == 6
            assert snap["cache"]["rule_hits"] == 3
            assert snap["publishes"] >= 2

    asyncio.run(main())
