"""Nothing packs the R-tree but a read of ``index.rtree``.

SEARCH answers from the per-value MIP bitmaps, so building, calibrating,
saving, loading, folding, publishing, reloading and querying must all
run with the packer made to raise; the first read of ``index.rtree``
then packs the tree once, and later reads return the same tree.
"""

import asyncio

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    EpochPublisher,
    open_epoch,
)
from repro.core.engine import Colarm
from repro.core.persistence import load_index, save_index
from repro.core.plans import PlanKind
from repro.dataset.salary import salary_dataset
from repro.rtree import supported

SEATTLE = (
    "REPORT LOCALIZED ASSOCIATION RULES FROM salary "
    "WHERE RANGE Location = (Seattle) "
    "HAVING minsupport = 0.4 AND minconfidence = 0.7;"
)


def _boom(*args, **kwargs):
    raise AssertionError("packed an R-tree")


def test_nothing_packs_a_tree_until_it_is_read(tmp_path, monkeypatch):
    real_pack = supported.pack_hilbert
    monkeypatch.setattr(supported, "pack_hilbert", _boom)
    salary = salary_dataset()

    engine = Colarm(salary, primary_support=0.15)
    engine.calibrate(n_probes=2)

    path = tmp_path / "s.colarm.npz"
    save_index(engine.index, path, compress=False)
    for verify in ("mine", "stored"):
        for mmap_mode in (None, "r"):
            loaded, _ = load_index(path, mmap_mode=mmap_mode, verify=verify)
            assert Colarm.from_index(loaded).query(SEATTLE).n_rules > 0

    engine.enable_maintenance(max_delta_fraction=0.5)
    engine.append(salary.data[:3].tolist())
    engine.maintenance.recompact()
    assert engine.maintenance.n_pending == 0

    for kind in PlanKind:
        engine.query(SEATTLE, plan=kind.value, use_cache=False)

    # What a cluster publish and a worker's load and reload run, in
    # process first: a forked worker that failed its load would only be
    # respawned until the cluster gave up.
    publisher = EpochPublisher(engine, tmp_path / "epochs")
    publisher.publish()
    open_epoch(tmp_path / "epochs")
    engine.append(salary.data[5:7].tolist())
    publisher.publish()
    info, worker = open_epoch(tmp_path / "epochs", min_epoch=2)
    assert info.epoch == 2
    assert worker.query(SEATTLE).n_rules > 0

    async def publish_and_reload():
        async with ClusterService(
            engine, tmp_path / "cluster", ClusterConfig(workers=1)
        ) as cluster:
            first = await cluster.submit(SEATTLE)
            await cluster.ingest(salary.data[3:5].tolist(), publish=True)
            second = await cluster.submit(SEATTLE)
            return first, second, cluster.publisher.epoch, cluster.snapshot()

    first, second, epoch, snapshot = asyncio.run(publish_and_reload())
    assert first.epoch < second.epoch == epoch
    assert snapshot["respawns"] == 0

    packs = []

    def counted(*args, **kwargs):
        packs.append(1)
        return real_pack(*args, **kwargs)

    monkeypatch.setattr(supported, "pack_hilbert", counted)
    index = engine.index
    tree = index.rtree
    assert index.rtree is tree and index.flat_rtree is tree.flat
    assert len(tree) == index.n_mips
    assert len(packs) == 1
