"""Multi-process serving cluster: mmap-shared workers, focal-key routing.

One :class:`~repro.serving.QueryService` scales until its engine thread
saturates a core; this module takes the system past one process.  An
asyncio **router** fronts ``W`` worker *processes*, each running its own
service + engine over the *same* snapshot opened with
``load_index(mmap_mode="r")`` — the table's cell matrix and the packed
kernel matrices are file-backed pages
every worker on the box shares, so worker ``i`` pays private RSS only
for its optimizer state and the per-record tidset integers.

The cluster's one rule cache is the writer engine's, and it lives in the
router: a repeat is served from it inline, before any routing, so it
crosses no pipe and is never pickled.  Workers keep no cache; only a
miss reaches one, and its answer fills the router's cache.

Three protocols make the split safe:

* **Home-plus-load placement.**  A :class:`HashRing` over the canonical
  focal key (:func:`repro.core.query.canonical_focal_key`) — the same
  identity the rule cache and request coalescing already share — names
  each miss's *home* worker.  The miss goes home when an identical
  request is in flight there (it coalesces onto that execution) or when
  no live worker has strictly fewer routed requests in flight; otherwise
  it goes to the least-loaded worker — consistent hashing with bounded
  loads at the tightest bound.  Sequential traffic always goes home.
  Membership is fixed at :meth:`ClusterService.start`; a retired worker
  remaps only the keys adjacent to its ring points (~``1/W`` of the key
  space).

* **Epoch publish.**  Exactly one writer (the router's engine, driven
  by one writer thread) owns the delta store.
  :meth:`ClusterService.publish` folds pending mutations,
  writes ``snapshot-<epoch>.colarm.npz`` with ``compress=False`` (so the
  members stay mappable), then atomically replaces ``EPOCH.json`` — a
  reader either sees the old epoch or the complete new one, never a torn
  snapshot.  Every request is stamped with the minimum epoch it is
  allowed to be served at; a worker that is behind reloads *before*
  executing, so a serve at a stale generation is impossible by
  construction.  The router's cache is stamped with the writer's
  generation, which equals the published one right after a publish: an
  answer a worker served at an older epoch is never inserted, and the
  publish's fold empties the cache.

* **Crash respawn.**  The router's event loop watches every worker
  pipe (``loop.add_reader``) and sees EOF when a worker dies; an
  unexpected death respawns the worker (bounded by
  ``max_respawns``) and re-sends its in-flight requests — executions are
  deterministic, so the retried responses are byte-identical.  A worker
  past its respawn budget, or whose respawn fails, is removed from the
  ring and its in-flight requests re-route to the survivors.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import hashlib
import itertools
import json
import multiprocessing as mp
import os
import select
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.engine import Colarm, QueryOutcome, rule_family
from repro.core.persistence import load_index, save_index
from repro.core.plans import PlanKind, plan_from_name
from repro.core.query import LocalizedQuery, canonical_focal_key
from repro.errors import (
    DataError,
    QueryError,
    ServiceClosedError,
    ServiceError,
)
from repro.itemsets.rules import RuleBlock
from repro.serving import (
    QueryService,
    RequestTrace,
    ServingConfig,
    coalescing_fields,
)

__all__ = [
    "HashRing",
    "ClusterConfig",
    "ClusterResponse",
    "ClusterService",
    "EpochInfo",
    "EpochPublisher",
    "read_epoch",
    "private_rss_kb",
]

EPOCH_FILE = "EPOCH.json"

#: Published snapshots kept on disk: the current epoch and the one before
#: it, which a worker still mid-reload may hold open.
KEEP_SNAPSHOTS = 2


# -- consistent hashing ------------------------------------------------------


def _point(data: bytes) -> int:
    """A stable 64-bit ring coordinate.

    ``hash()`` is salted per process, so it cannot place the same key at
    the same coordinate in the router and in a test harness — blake2b
    gives process-independent placement for free.
    """
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring of integer worker ids.

    Each worker owns ``replicas`` pseudo-random points on a 64-bit
    circle; a key routes to the owner of the first point clockwise from
    the key's own coordinate.  Adding or removing a worker moves only
    the keys adjacent to that worker's points — everything else keeps
    its route, so misses of one key keep meeting on one worker through
    membership changes.
    """

    def __init__(self, replicas: int = 96):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._hashes: list[int] = []       # sorted ring coordinates
        self._owners: list[int] = []       # worker id at the same slot
        self._workers: set[int] = set()

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker_id: int) -> bool:
        return worker_id in self._workers

    @property
    def workers(self) -> tuple[int, ...]:
        return tuple(sorted(self._workers))

    def _points(self, worker_id: int) -> list[int]:
        return [
            _point(f"worker-{worker_id}:{r}".encode())
            for r in range(self.replicas)
        ]

    def add(self, worker_id: int) -> None:
        if worker_id in self._workers:
            raise ValueError(f"worker {worker_id} already on the ring")
        for h in self._points(worker_id):
            at = bisect.bisect_left(self._hashes, h)
            self._hashes.insert(at, h)
            self._owners.insert(at, worker_id)
        self._workers.add(worker_id)

    def remove(self, worker_id: int) -> None:
        if worker_id not in self._workers:
            raise ValueError(f"worker {worker_id} not on the ring")
        keep = [
            (h, w)
            for h, w in zip(self._hashes, self._owners)
            if w != worker_id
        ]
        self._hashes = [h for h, _ in keep]
        self._owners = [w for _, w in keep]
        self._workers.discard(worker_id)

    def route(self, key: bytes) -> int:
        """The worker owning ``key``; raises when the ring is empty."""
        if not self._hashes:
            raise ServiceError("hash ring is empty — no workers")
        at = bisect.bisect_right(self._hashes, _point(key))
        if at == len(self._hashes):
            at = 0
        return self._owners[at]


def _focal_key_bytes(q: LocalizedQuery, cardinalities) -> bytes:
    """The routing identity: the canonical focal key, stably encoded."""
    return repr(canonical_focal_key(q.range_selections, cardinalities)).encode()


# -- epoch publishing --------------------------------------------------------


@dataclass(frozen=True)
class EpochInfo:
    """One published epoch: which snapshot serves it, at what generation."""

    epoch: int
    snapshot: str
    generation: int
    n_records: int
    expand: bool = False

    def snapshot_path(self, directory: Path) -> Path:
        return Path(directory) / self.snapshot

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "snapshot": self.snapshot,
            "generation": self.generation,
            "n_records": self.n_records,
            "expand": self.expand,
        }


def read_epoch(directory: str | Path) -> EpochInfo | None:
    """The currently published epoch, or ``None`` before the first publish.

    Keys the reader does not know are ignored: an epoch file written by an
    older publisher may still name a rule-cache sidecar.  A file that is
    not a JSON object with every field is a ``DataError`` naming it.
    """
    path = Path(directory) / EPOCH_FILE
    try:
        meta = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read epoch file {path}: {exc}") from exc
    try:
        return EpochInfo(
            epoch=int(meta["epoch"]),
            snapshot=str(meta["snapshot"]),
            generation=int(meta["generation"]),
            n_records=int(meta["n_records"]),
            expand=bool(meta.get("expand", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"malformed epoch file {path}: {type(exc).__name__}: {exc}"
        ) from None


class EpochPublisher:
    """The single-writer side of the epoch-publish protocol.

    Owns the writer engine (and with it the PR-9 delta store).  Each
    :meth:`publish` folds whatever mutations are pending, writes a fresh
    uncompressed snapshot — ``compress=False`` is load-bearing: deflated
    members cannot be memory-mapped, and the whole point of the cluster
    is that workers share the snapshot's pages — and then atomically
    replaces ``EPOCH.json`` via a temp file + ``os.replace``, so readers
    see either the previous epoch or the complete new one.
    """

    def __init__(self, engine: Colarm, directory: str | Path):
        self.engine = engine
        self.directory = Path(directory)
        current = read_epoch(self.directory)
        self.epoch = current.epoch if current is not None else 0
        self.n_publishes = 0

    def publish(self) -> EpochInfo:
        """Fold, snapshot, and atomically advance the published epoch."""
        if self.engine.maintenance is not None:
            # Land every pending mutation in the main index.
            self.engine.maintenance.recompact()
            self.engine.poll_maintenance()
        index = self.engine.index
        epoch = self.epoch + 1
        self.directory.mkdir(parents=True, exist_ok=True)
        snapshot = f"snapshot-{epoch:06d}.colarm.npz"
        save_index(
            index,
            self.directory / snapshot,
            weights=self.engine.optimizer.weights,
            compress=False,
        )
        info = EpochInfo(
            epoch=epoch,
            snapshot=snapshot,
            generation=index.generation,
            n_records=index.table.n_records,
            expand=self.engine.expand,
        )
        tmp = self.directory / (EPOCH_FILE + ".tmp")
        tmp.write_text(json.dumps(info.as_dict()))
        os.replace(tmp, self.directory / EPOCH_FILE)
        self.epoch = epoch
        self.n_publishes += 1
        self._gc(epoch)
        return info

    def _gc(self, epoch: int) -> None:
        """Drop snapshots older than the retention window (best effort —
        a worker mid-reload may still hold the previous epoch open)."""
        floor = epoch - KEEP_SNAPSHOTS
        for path in self.directory.glob("snapshot-*.npz"):
            try:
                n = int(path.name.split("-")[1].split(".")[0])
            except (IndexError, ValueError):
                continue
            if n <= floor:
                try:
                    path.unlink()  # an older publisher's .cache.npz too
                except OSError:
                    pass


# -- configuration / responses ----------------------------------------------


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the router and its workers.

    There is no cache knob: the cluster caches exactly when the writer
    engine handed to :class:`ClusterService` has a cache
    (:meth:`~repro.core.engine.Colarm.enable_cache`), and that cache, in
    the router, is the only one — workers run cacheless.
    """

    workers: int = 2                 #: worker processes to spawn
    serving: ServingConfig = field(default_factory=ServingConfig)
    max_respawns: int = 2            #: crash respawns per worker slot
    ready_timeout_s: float = 120.0   #: worker must load within this bound

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")


@dataclass
class ClusterResponse:
    """One response: the rules plus where/when they were served.

    ``worker`` is the worker process that executed the request, or
    ``None`` when it was served by the router, from its cache
    (``cached`` is then true, and ``epoch`` / ``generation`` are the
    router's current ones).
    """

    rules: RuleBlock
    plan: PlanKind
    cached: bool
    worker: int | None
    epoch: int
    generation: int
    trace: dict

    @property
    def n_rules(self) -> int:
        return len(self.rules)


def private_rss_kb() -> int | None:
    """This process's private (unshared) resident set, in KiB.

    Reads ``/proc/self/smaps_rollup`` and sums ``Private_Clean`` +
    ``Private_Dirty`` — file-backed pages mapped by several processes
    (the snapshot members under mmap) land in the *Shared* buckets and
    are deliberately excluded: they cost the box once, not per worker.
    Returns ``None`` where the proc file is unavailable.
    """
    try:
        text = Path("/proc/self/smaps_rollup").read_text()
    except OSError:
        return None
    total = 0
    for line in text.splitlines():
        if line.startswith(("Private_Clean:", "Private_Dirty:")):
            total += int(line.split()[1])
    return total


def _trim_heap() -> None:
    """Return freed allocator pages to the OS (best effort, glibc only).

    Loading a snapshot leaves transient peaks (reconstruction buffers,
    verification copies) parked on the malloc heap; ``malloc_trim``
    hands the reclaimable tail back so a worker's measured unique RSS
    reflects what it actually keeps."""
    gc.collect()
    try:
        import ctypes

        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # pragma: no cover - non-glibc
        pass


# -- the worker process ------------------------------------------------------


class _WorkerRuntime:
    """Everything one worker process keeps between requests."""

    def __init__(self, worker_id: int, directory: Path,
                 config: ClusterConfig):
        self.worker_id = worker_id
        self.directory = directory
        self.config = config
        self.epoch = 0
        self.generation = 0
        self.baseline_rss_kb = private_rss_kb()
        self.n_reloads = 0
        self.engine: Colarm | None = None
        self.service: QueryService | None = None
        self._reload_lock = asyncio.Lock()

    def _load(self, info: EpochInfo) -> None:
        """Open one published epoch: mmap the snapshot, serve it cacheless.

        ``verify="stored"`` because the snapshot came from this cluster's
        own writer: tidsets are still cross-checked bit-for-bit against
        the archive's kernel matrices, but no miner runs — the mining
        heap watermark would otherwise dominate the worker's unique RSS
        and defeat the point of sharing the index via mmap.  No rule
        cache: repeats are served by the router's, before they route.
        """
        index, weights = load_index(
            info.snapshot_path(self.directory), mmap_mode="r",
            verify="stored",
        )
        # Continue the published generation lineage: stamps issued here
        # are comparable with every other worker's and the writer's.
        index.clock.base = info.generation - index.generation
        self.engine = Colarm.from_index(index, weights=weights,
                                        expand=info.expand)
        self.service = QueryService(self.engine, self.config.serving)
        self.epoch = info.epoch
        self.generation = info.generation
        _trim_heap()

    def load_current(self) -> None:
        info = read_epoch(self.directory)
        if info is None:
            raise DataError(
                f"worker {self.worker_id}: no published epoch in "
                f"{self.directory}"
            )
        self._load(info)

    async def ensure_epoch(self, min_epoch: int) -> None:
        """Hot-swap to a newer epoch between requests.

        Drains the current service first, so in-flight executions finish
        against the snapshot they started on; only then does the worker
        re-point at the new snapshot — a request can never observe half
        of each.
        """
        if self.epoch >= min_epoch:
            return
        async with self._reload_lock:
            if self.epoch >= min_epoch:
                return
            info = read_epoch(self.directory)
            if info is None or info.epoch < min_epoch:
                raise DataError(
                    f"worker {self.worker_id}: epoch {min_epoch} required "
                    f"but {info.epoch if info else None} published"
                )
            await self.service.stop(drain=True)
            self._load(info)
            await self.service.start()
            self.n_reloads += 1

    def rss(self) -> dict:
        current = private_rss_kb()
        unique = (
            current - self.baseline_rss_kb
            if current is not None and self.baseline_rss_kb is not None
            else None
        )
        return {
            "worker": self.worker_id,
            "baseline_kb": self.baseline_rss_kb,
            "private_kb": current,
            "unique_kb": unique,
        }

    def stats(self) -> dict:
        snap = self.service.snapshot() if self.service is not None else {}
        snap.update(
            worker=self.worker_id,
            epoch=self.epoch,
            generation=self.generation,
            n_reloads=self.n_reloads,
        )
        return snap


async def _worker_loop(worker_id: int, conn, directory: Path,
                       config: ClusterConfig) -> None:
    runtime = _WorkerRuntime(worker_id, directory, config)
    runtime.load_current()
    await runtime.service.start()
    loop = asyncio.get_running_loop()
    tasks: set[asyncio.Task] = set()
    stopped = loop.create_future()
    conn.send(("ready", worker_id, runtime.epoch, runtime.generation,
               runtime.rss()))

    async def serve(req_id: int, query: LocalizedQuery, plan_name,
                    use_cache: bool, min_epoch: int) -> None:
        try:
            await runtime.ensure_epoch(min_epoch)
            plan = plan_from_name(plan_name) if plan_name else None
            try:
                served = await runtime.service.submit(
                    query, plan=plan, use_cache=use_cache
                )
            except ServiceClosedError:
                # Lost the race with a hot-swap: the drain closed the old
                # service under us.  Wait the swap out, run on the new one.
                async with runtime._reload_lock:
                    pass
                served = await runtime.service.submit(
                    query, plan=plan, use_cache=use_cache
                )
            conn.send(("ok", req_id, {
                "rules": served.rules,
                "plan": served.plan,
                "dq_size": served.outcome.dq_size,
                "trace": served.trace.as_dict(),
                "worker": worker_id,
                "epoch": runtime.epoch,
                "generation": runtime.generation,
            }))
        except Exception as exc:  # noqa: BLE001 — the router re-raises it
            conn.send(("err", req_id, exc))

    def spawn(coro) -> None:
        task = asyncio.ensure_future(coro)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    def on_readable() -> None:
        """One message per wake-up, read on the loop thread: the pipe is
        watched by the loop's selector, so a request reaches ``serve``
        without a thread hand-off."""
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            msg = ("stop",)
        tag = msg[0]
        if tag == "query":
            spawn(serve(*msg[1:]))
        elif tag == "reload":
            spawn(runtime.ensure_epoch(msg[1]))
        elif tag == "stats":
            conn.send(("stats", msg[1], runtime.stats()))
        elif tag == "rss":
            conn.send(("rss", msg[1], runtime.rss()))
        elif tag == "stop":
            loop.remove_reader(conn.fileno())
            stopped.set_result(None)
        else:  # pragma: no cover — protocol drift guard
            conn.send(("err", None, ServiceError(f"unknown message {tag!r}")))

    loop.add_reader(conn.fileno(), on_readable)
    await stopped
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)
    if runtime.service is not None:
        await runtime.service.stop(drain=True)
    conn.send(("bye", worker_id))
    conn.close()


def _worker_main(worker_id: int, conn, directory: str,
                 config: ClusterConfig) -> None:
    # Under the fork start method the child inherits the parent's whole
    # heap copy-on-write — including the writer engine's tidsets.  Freeze
    # those inherited objects so the cyclic collector never traverses
    # (and thereby privately copies) pages this worker will never use;
    # the worker's own index arrives as a read-only mmap of the snapshot.
    gc.collect()
    gc.freeze()
    try:
        asyncio.run(_worker_loop(worker_id, conn, Path(directory), config))
    except KeyboardInterrupt:  # pragma: no cover
        pass


# -- the router --------------------------------------------------------------


class _WorkerHandle:
    """Router-side state for one worker slot."""

    def __init__(self, worker_id: int):
        self.id = worker_id
        self.process = None
        self.conn = None
        self.ready: asyncio.Future | None = None
        self.stopping = False
        self.respawns = 0
        self.rss: dict | None = None


class _Pending:
    """One request the router has sent but not yet resolved."""

    __slots__ = ("future", "worker", "message", "key")

    def __init__(self, future, worker, message, key):
        self.future = future
        self.worker = worker
        self.message = message
        self.key = key


class ClusterService:
    """The asyncio router over ``W`` mmap-shared worker processes.

    Construct with the *writer* engine (the one that owns mutation) and
    a snapshot directory, ``await start()``, then :meth:`submit` from
    any number of tasks; ``async with`` does the start/stop pair.  All
    public methods must be called from the event loop thread.
    """

    def __init__(self, engine: Colarm, directory: str | Path,
                 config: ClusterConfig | None = None):
        self.engine = engine
        self.directory = Path(directory)
        self.config = config or ClusterConfig()
        self.ring = HashRing()
        self.publisher = EpochPublisher(engine, self.directory)
        self._handles: dict[int, _WorkerHandle] = {}
        self._pending: dict[int, _Pending] = {}
        self._req_ids = itertools.count(1)
        self._min_epoch = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        #: The one thread that drives the writer engine: every ingest,
        #: remove and publish runs here, in call order.  The router's
        #: waits on worker processes run here too: a second helper thread
        #: would take a malloc arena of its own, and a publish after it
        #: exits may fill a fresh arena (+11 MB peak RSS measured on the
        #: 2-vCPU ``wide_cluster`` benchmark run).
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="colarm-writer"
        )
        self._closed = False
        self.route_counts: dict[int, int] = {}
        self.n_crashes = 0
        self.n_respawns = 0
        self.n_rerouted = 0
        self.n_spilled = 0
        try:
            self._mp = mp.get_context("fork")
        except ValueError:  # no fork here: the platform's default method
            self._mp = mp.get_context()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ClusterService":
        if self._closed:
            raise ServiceClosedError("cluster already stopped")
        self._loop = asyncio.get_running_loop()
        if self.engine.maintenance is None:
            # The writer must own a delta store for ingest to have a
            # fold path; calibration already happened (or was skipped)
            # upstream — don't re-fit weights here.
            self.engine.enable_maintenance(calibrate=False)
        await self._run_writer(self.publisher.publish)
        self._min_epoch = self.publisher.epoch
        await asyncio.gather(
            *(self._spawn(worker_id) for worker_id in range(self.config.workers))
        )
        for handle in self._handles.values():
            self.ring.add(handle.id)
            self.route_counts.setdefault(handle.id, 0)
        return self

    async def stop(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in list(self._handles.values()):
            await self._stop_worker(handle)
        for pending in list(self._pending.values()):
            if not pending.future.done():
                pending.future.set_exception(
                    ServiceClosedError("cluster stopped")
                )
        self._pending.clear()
        self._writer.shutdown(wait=True)

    async def __aenter__(self) -> "ClusterService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _stop_worker(self, handle: _WorkerHandle) -> None:
        handle.stopping = True
        try:
            self._post(handle.id, ("stop",))
        except (KeyError, OSError):
            pass
        process = handle.process
        await self._loop.run_in_executor(self._writer, process.join, 30)
        if process.is_alive():  # pragma: no cover — stuck worker backstop
            process.terminate()
            await self._loop.run_in_executor(self._writer, process.join, 5)
        self._unwatch(handle.conn)
        self._handles.pop(handle.id, None)

    def _spawn(self, worker_id: int) -> asyncio.Future:
        """Start one worker process; resolves when it reports ready."""
        handle = self._handles.get(worker_id)
        if handle is None:
            handle = _WorkerHandle(worker_id)
            self._handles[worker_id] = handle
        parent, child = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main,
            args=(worker_id, child, str(self.directory), self.config),
            name=f"colarm-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child.close()
        handle.process = process
        handle.conn = parent
        handle.stopping = False
        handle.ready = self._loop.create_future()
        self._loop.add_reader(
            parent.fileno(), self._on_readable, worker_id, parent
        )
        return asyncio.wait_for(
            asyncio.shield(handle.ready), self.config.ready_timeout_s
        )

    # -- worker pipes, watched by the event loop -----------------------------

    def _on_readable(self, worker_id: int, conn) -> None:
        """One message per wake-up, read and unpickled on the loop thread
        — an answer reaches its awaiting ``submit`` with no hand-off."""
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            self._unwatch(conn)
            self._on_eof(worker_id, conn)
            return
        self._on_message(worker_id, msg)

    def _unwatch(self, conn) -> None:
        """Stop watching a worker pipe and close it (idempotent)."""
        if not conn.closed:
            self._loop.remove_reader(conn.fileno())
            conn.close()

    def _post(self, worker_id: int, message: tuple) -> None:
        """Write one message into a worker's pipe.

        The loop thread is also that pipe's only reader, so it must not
        block in ``send`` on a full pipe: a worker that is itself blocked
        writing answers nobody takes will never drain it.  While the pipe
        has no room, take the worker's answers instead.  Raises
        ``KeyError``/``OSError`` when the worker (or its pipe) is gone.
        """
        conn = self._handles[worker_id].conn
        while not select.select([], [conn], [], 0)[1]:
            if select.select([conn], [conn], [])[0]:
                self._on_readable(worker_id, conn)
        conn.send(message)

    def _on_message(self, worker_id: int, msg: tuple) -> None:
        tag = msg[0]
        handle = self._handles.get(worker_id)
        if tag == "ready":
            if handle is not None:
                handle.rss = msg[4]
                if handle.ready is not None and not handle.ready.done():
                    handle.ready.set_result(msg)
            return
        if tag == "bye":
            if handle is not None:
                handle.stopping = True
            return
        if tag in ("ok", "err", "stats", "rss"):
            pending = self._pending.pop(msg[1], None)
            if pending is None or pending.future.done():
                return
            if tag == "err":
                pending.future.set_exception(msg[2])
            else:
                pending.future.set_result(msg[2])

    def _on_eof(self, worker_id: int, conn) -> None:
        handle = self._handles.get(worker_id)
        if handle is None or handle.conn is not conn or handle.stopping:
            return  # planned shutdown, or a stale pre-respawn pipe
        self.n_crashes += 1
        asyncio.ensure_future(self._revive(handle))

    async def _revive(self, handle: _WorkerHandle) -> None:
        """Respawn a crashed worker (or retire it) and re-drive its load."""
        orphans = [
            p for p in self._pending.values() if p.worker == handle.id
        ]
        if handle.respawns < self.config.max_respawns:
            handle.respawns += 1
            self.n_respawns += 1
            try:
                await self._spawn(handle.id)
            except Exception:
                # The fork raised, or the worker missed its ready deadline:
                # the slot retires as if past its budget, and a worker
                # that did start is killed with it.
                self._unwatch(handle.conn)
                if handle.process.is_alive():
                    handle.process.kill()
                    await self._loop.run_in_executor(
                        self._writer, handle.process.join, 5
                    )
                await self._retire(handle, orphans)
                return
            for pending in orphans:
                try:
                    self._post(handle.id, pending.message)
                except (KeyError, OSError):  # pragma: no cover
                    pass  # the new pipe died too; the next EOF re-drives
        else:
            await self._retire(handle, orphans)

    async def _retire(self, handle: _WorkerHandle, orphans) -> None:
        """Drop a worker from the ring and re-route its in-flight load."""
        if handle.id in self.ring:
            self.ring.remove(handle.id)
        self._handles.pop(handle.id, None)
        for pending in orphans:
            if pending.key is None or len(self.ring) == 0:
                if not pending.future.done():
                    pending.future.set_exception(ServiceError(
                        f"worker {handle.id} died with no successor"
                    ))
                self._pending.pop(pending.message[1], None)
                continue
            _, _, q, plan, use_cache, _ = pending.message
            new_worker = self._place(pending.key, q, plan, use_cache)
            pending.worker = new_worker
            self.n_rerouted += 1
            try:
                self._post(new_worker, pending.message)
            except (KeyError, OSError):  # pragma: no cover
                pass  # the successor's EOF handler will re-drive it

    # -- requests ----------------------------------------------------------

    def _outstanding(self) -> dict[int, int]:
        """Each live worker's load: its routed ``"query"`` messages still
        in ``_pending``."""
        load = dict.fromkeys(self.ring.workers, 0)
        for pending in self._pending.values():
            if pending.message[0] == "query" and pending.worker in load:
                load[pending.worker] += 1
        return load

    def _place(self, key: bytes, q: LocalizedQuery, plan: str | None,
               use_cache: bool) -> int:
        """The worker a routed request goes to.

        Its ring home when a request with the same coalescing identity
        (focal key plus :func:`~repro.serving.coalescing_fields`; every
        worker runs the same engine mode) is in flight there, both with
        ``use_cache``, so the worker's service joins them; or when no live
        worker has strictly fewer requests in flight.  Else the
        least-loaded live worker, the lowest id on a tie.
        """
        home = self.ring.route(key)
        if use_cache:
            fields = coalescing_fields(q, plan)
            if any(
                p.key == key and p.worker == home and p.message[4]
                and coalescing_fields(p.message[2], p.message[3]) == fields
                for p in self._pending.values()
            ):
                return home
        load = self._outstanding()
        idle = min(load, key=lambda w: (load[w], w))
        if load[idle] < load[home]:
            self.n_spilled += 1
            return idle
        return home

    def _send(self, worker_id: int, message: tuple, key: bytes | None):
        req_id = message[1]
        future = self._loop.create_future()
        self._pending[req_id] = _Pending(future, worker_id, message, key)
        try:
            self._post(worker_id, message)
        except (KeyError, OSError):
            pass  # worker just died; its EOF handler re-drives this request
        return future

    async def submit(
        self,
        request: LocalizedQuery | str,
        plan: PlanKind | str | None = None,
        use_cache: bool = True,
    ) -> ClusterResponse:
        """Answer one request: from the router's cache when it holds the
        answer, else from the worker :meth:`_place` picks.

        Raises the :class:`~repro.errors.QueryError` of a request that
        does not parse or validate.  A routed answer the worker served at
        the epoch the router stamps fills the cache for the next repeat;
        ``use_cache=False`` neither consults nor fills it.
        """
        if self._closed:
            raise ServiceClosedError("cluster is stopped")
        t_submit = time.monotonic()
        engine = self.engine
        q = engine.parse(request) if isinstance(request, str) else request
        kind = plan_from_name(plan) if isinstance(plan, str) else plan
        q.validate_against(engine.schema)
        cache = engine.cache if use_cache else None
        if cache is not None:
            # The writer's generation, read before the probe: a mutation
            # racing it on the writer thread makes the probe miss, so it
            # cannot stamp a hit it did not serve.
            generation = cache.generation()
            outcome = engine.serve_cached(q, kind)
            if outcome is not None:
                return self._served_by_router(outcome, generation, t_submit)
        key = _focal_key_bytes(q, engine.index.cardinalities)
        plan_name = None if kind is None else kind.value
        worker_id = self._place(key, q, plan_name, use_cache)
        self.route_counts[worker_id] = self.route_counts.get(worker_id, 0) + 1
        req_id = next(self._req_ids)
        message = ("query", req_id, q, plan_name, use_cache, self._min_epoch)
        payload = await self._send(worker_id, message, key)
        if cache is not None and payload["epoch"] == self._min_epoch:
            # Refused if the writer has mutated past the served generation.
            cache.put_rules(
                q, payload["rules"], payload["dq_size"],
                family=rule_family(payload["plan"]),
                generation=payload["generation"],
            )
        return ClusterResponse(
            rules=payload["rules"],
            plan=payload["plan"],
            cached=False,
            worker=payload["worker"],
            epoch=payload["epoch"],
            generation=payload["generation"],
            trace=payload["trace"],
        )

    def _served_by_router(
        self, outcome: QueryOutcome, generation: int, t_submit: float
    ) -> ClusterResponse:
        """A router cache hit: no routing, no pipe, no pickling."""
        total_s = time.monotonic() - t_submit
        trace = RequestTrace(
            execute_s=total_s, total_s=total_s, plan=outcome.plan,
            cached=True, generation=generation,
        )
        return ClusterResponse(
            rules=outcome.rules,
            plan=outcome.plan,
            cached=True,
            worker=None,
            epoch=self._min_epoch,
            generation=generation,
            trace=trace.as_dict(),
        )

    # -- mutation: the single writer ---------------------------------------

    async def _run_writer(self, fn, *args):
        """Run one writer-engine touch on the writer thread."""
        return await self._loop.run_in_executor(self._writer, fn, *args)

    async def ingest(self, records, publish: bool = True) -> int:
        """Append records through the writer's delta store.

        The mutation becomes query-visible at the next :meth:`publish`
        (immediately, with ``publish=True``): that is the linearization
        point of the epoch-publish protocol.  Returns the writer's new
        generation.
        """
        if self._closed:
            raise ServiceClosedError("cluster is stopped")
        generation = await self._run_writer(self.engine.append, records)
        if publish:
            await self.publish()
        return generation

    async def remove(self, tids, publish: bool = True) -> int:
        """Delete records by tid through the writer's delta store."""
        if self._closed:
            raise ServiceClosedError("cluster is stopped")
        generation = await self._run_writer(self.engine.delete, tids)
        if publish:
            await self.publish()
        return generation

    async def publish(self) -> EpochInfo:
        """Fold + snapshot + advance the epoch, then wake the workers.

        New submissions are stamped with the new epoch the moment this
        returns, so a worker that has not yet hot-swapped reloads before
        serving them — the reload broadcast below is a latency
        optimization, not a correctness requirement.
        """
        if self._closed:
            raise ServiceClosedError("cluster is stopped")
        info = await self._run_writer(self.publisher.publish)
        # Publishes finish in call order; the stamp never moves back.
        self._min_epoch = max(self._min_epoch, info.epoch)
        for handle in self._handles.values():
            if not handle.stopping:
                try:
                    self._post(handle.id, ("reload", info.epoch))
                except (KeyError, OSError):  # pragma: no cover
                    pass
        return info

    # -- introspection -----------------------------------------------------

    @property
    def workers(self) -> tuple[int, ...]:
        return self.ring.workers

    async def worker_stats(self) -> list[dict]:
        """Per-worker service snapshots (p50/p99, epoch, reload count)."""
        futures = []
        for worker_id in self.workers:
            req_id = next(self._req_ids)
            futures.append(
                self._send(worker_id, ("stats", req_id), None)
            )
        return list(await asyncio.gather(*futures))

    async def worker_rss(self) -> list[dict]:
        """Per-worker private-RSS reports (see :func:`private_rss_kb`)."""
        futures = []
        for worker_id in self.workers:
            req_id = next(self._req_ids)
            futures.append(
                self._send(worker_id, ("rss", req_id), None)
            )
        return list(await asyncio.gather(*futures))

    def snapshot(self) -> dict:
        """Router-side counters, the router cache's ledger under
        ``"cache"`` (``None`` without a cache); per-worker detail is
        async: use :meth:`worker_stats`.

        ``"routing"`` counts where each request was sent, ``"spilled"``
        the requests placed away from their ring home, and
        ``"outstanding"`` the routed requests in flight per worker."""
        total = sum(self.route_counts.values())
        return {
            "workers": list(self.workers),
            "epoch": self.publisher.epoch,
            "min_epoch": self._min_epoch,
            "publishes": self.publisher.n_publishes,
            "routed": total,
            "routing": {
                str(w): self.route_counts.get(w, 0) for w in self.workers
            },
            "spilled": self.n_spilled,
            "outstanding": {
                str(w): n for w, n in self._outstanding().items()
            },
            "crashes": self.n_crashes,
            "respawns": self.n_respawns,
            "rerouted": self.n_rerouted,
            "cache": (
                None if self.engine.cache is None
                else self.engine.cache.stats.as_dict()
            ),
        }


async def replay_cluster(cluster, requests) -> tuple[list, dict]:
    """Submit a workload through a started cluster; gather all responses.

    Mirrors :func:`repro.serving.serve_all`: per-request failures —
    a shed or failed request, or query text that does not parse or
    validate — come back as the exception object in the results list,
    and the second element is the router snapshot taken after the drain.
    """
    async def one(req):
        try:
            return await cluster.submit(req)
        except (ServiceError, QueryError) as exc:
            return exc

    results = await asyncio.gather(*(one(r) for r in requests))
    return list(results), cluster.snapshot()
