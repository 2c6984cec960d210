"""The index's sub-itemset table: what MIP plans gather, and who owns it.

Every index names the sub-itemset lattices of all its MIPs once, in
``assemble_index`` — the one constructor build, fold and load share — so
no MIP-plan request names a cell, and an index that replaced another
(a fold, a load, a cluster reload) answers from a table of its own MIPs.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import kernels
from repro.cluster import ClusterConfig, ClusterService, open_epoch
from repro.core.engine import Colarm
from repro.core.mipindex import build_mip_index, mip_sources
from repro.core.persistence import load_index, save_index
from repro.core.plans import PlanKind
from repro.core.query import LocalizedQuery
from repro.dataset.salary import salary_dataset
from repro.dataset.table import RelationalTable
from tests import oracle
from tests.conftest import rows_of
from tests.core.test_focal import make_table

MIP_PLANS = [kind for kind in PlanKind if kind is not PlanKind.ARM]

QUERIES = [
    LocalizedQuery({0: frozenset({1, 2})}, 0.3, 0.6),
    LocalizedQuery({0: frozenset({0})}, 0.2, 0.0),
    LocalizedQuery({1: frozenset({0, 1}), 3: frozenset({1})}, 0.25, 0.8),
    LocalizedQuery({2: frozenset({2})}, 0.3, 0.5,
                   item_attributes=frozenset({0, 1, 3})),
    LocalizedQuery({}, 0.1, 0.9),
]


def assert_own_table(index) -> None:
    """``index.subset_table`` is the table its own MIPs name."""
    sources, _ = mip_sources(index, np.arange(index.n_mips))
    own = kernels.SubsetTable(sources, index.table.schema.n_items)
    table = index.subset_table
    assert table.n_items == own.n_items
    assert table.bounds == own.bounds
    for name in ("widths", "starts", "cells", "ranks", "parents", "items"):
        assert np.array_equal(getattr(table, name), getattr(own, name)), name


@pytest.mark.parametrize("kind", MIP_PLANS, ids=lambda k: k.value)
def test_no_mip_plan_request_names_cells(monkeypatch, kind):
    engine = Colarm(make_table(), primary_support=0.05)
    engine.calibrate(n_probes=2)

    def refuse(*args, **kwargs):
        raise AssertionError("a MIP-plan request named its cells")

    monkeypatch.setattr(kernels, "_name_cells", refuse)
    rows = rows_of(engine.index.table)
    answered = 0
    for q in QUERIES:
        out = engine.query(q, plan=kind, use_cache=False)
        assert [tuple(r) for r in out.rules] == oracle.mip_rules(
            rows, 0.05, rows, 0, q, False
        ), q
        answered += len(out.rules)
    assert answered


def test_build_fold_and_load_each_own_a_table(tmp_path):
    engine = Colarm(make_table(), primary_support=0.05)
    assert_own_table(engine.index)
    built = engine.index

    engine.enable_maintenance(max_delta_fraction=0.99)
    engine.append([[1 + i % 2, i % 3, 0, i % 2] for i in range(8)])
    engine.delete([3, 5, 7])
    engine.maintenance.recompact()
    engine.poll_maintenance()
    folded = engine.index
    assert folded is not built and folded.n_mips != built.n_mips
    assert_own_table(folded)

    save_index(folded, tmp_path / "index.npz", compress=False)
    for mmap_mode in (None, "r"):
        loaded, _ = load_index(tmp_path / "index.npz", mmap_mode=mmap_mode)
        assert_own_table(loaded)
        rows = rows_of(loaded.table)
        q = QUERIES[0]
        out = Colarm.from_index(loaded).query(
            q, plan=PlanKind.SSVS, use_cache=False
        )
        assert [tuple(r) for r in out.rules] == oracle.mip_rules(
            rows, 0.05, rows, 0, q, False
        )


def test_a_cluster_reload_serves_from_its_own_table(tmp_path):
    """A publish after an ingest ships a snapshot of the grown table; the
    worker that reloads it names that snapshot's MIPs, not the old ones."""
    engine = Colarm(salary_dataset(), primary_support=0.15)
    grown = salary_dataset().data[:4].tolist()
    query = (
        "REPORT LOCALIZED ASSOCIATION RULES FROM salary "
        "WHERE RANGE Location = (Seattle) "
        "HAVING minsupport = 0.4 AND minconfidence = 0.7;"
    )

    async def main():
        config = ClusterConfig(workers=1)
        async with ClusterService(engine, tmp_path, config) as cluster:
            first = open_epoch(tmp_path)
            await cluster.ingest(grown, publish=True)
            res = await cluster.submit(query)
            return first, open_epoch(tmp_path), res

    (first, first_engine), (info, worker), res = asyncio.run(main())
    assert info.epoch == first.epoch + 1 == res.epoch
    live = np.vstack([salary_dataset().data, grown])
    assert np.array_equal(worker.index.table.data, live)
    assert_own_table(worker.index)
    assert (
        worker.index.subset_table.cells.shape
        != first_engine.index.subset_table.cells.shape
    )
    reference = Colarm(
        RelationalTable(salary_dataset().schema, live), primary_support=0.15
    )
    assert res.rules == reference.query(query).rules
    assert worker.query(query).rules == res.rules
    assert build_mip_index(reference.table, 0.15).n_mips == \
        worker.index.n_mips
