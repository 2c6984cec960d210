"""Multi-process serving cluster: mmap-shared workers behind one router.

One :class:`~repro.serving.QueryService` scales until its engine thread
saturates a core; this module takes the system past one process.  An
asyncio **router** fronts ``W`` worker *processes*.  Each worker is one
synchronous loop over its pipe — receive a request, execute it, send the
answer — over the *same* snapshot opened with
``load_index(mmap_mode="r")``: the table's cell matrix and the packed
kernel matrices are file-backed pages every worker on the box shares,
so worker ``i`` pays private RSS only for its optimizer state and the
per-record tidset integers.

The router, :class:`ClusterService`, is a
:class:`~repro.serving.QueryService` whose misses run on worker pipes:
the intake, coalescing table and stats ledger are the service's.  Its
rule cache is the writer engine's: a repeat is served from it inline,
before any routing, so it crosses no pipe and is never pickled.
Workers keep no cache; only a miss reaches one, and its answer fills
the router's cache.

Three protocols make the split safe:

* **Least-loaded placement, coalescing at the router.**  A miss goes to
  the live worker with the fewest routed requests in flight, the lowest
  id on a tie.  A miss identical to one in flight — the same
  :func:`~repro.serving.request_key`, its flight stamped with the same
  epoch, both with ``use_cache`` — is not routed at all: it joins that
  flight, so N concurrent identical misses cost one execution.

* **Epoch publish.**  Exactly one writer (the router's engine, driven
  by the service's one engine thread) owns the delta store.
  :meth:`ClusterService.publish` folds pending mutations,
  writes ``snapshot-<epoch>.colarm.npz`` with ``compress=False`` (so the
  members stay mappable), then atomically replaces ``EPOCH.json`` — a
  reader either sees the old epoch or the complete new one, never a torn
  snapshot.  Every request is stamped with the minimum epoch it is
  allowed to be served at; a worker that is behind reloads *before*
  executing it, between two messages, so a serve at a stale generation
  or across two snapshots is impossible by construction.  The worker
  maps the new epoch before it drops the old one: a reload that fails
  leaves it serving, and the request that asked for the new epoch gets
  the failure as its answer.  The router's cache is stamped with the
  writer's generation, which equals the published one right after a
  publish: an answer a worker served at an older epoch is never
  inserted, and the publish's fold empties the cache.

* **Crash respawn.**  The router's event loop watches every worker
  pipe (``loop.add_reader``) and sees EOF when a worker dies; an
  unexpected death respawns the worker (bounded by
  ``max_respawns``) and re-sends its in-flight requests — executions are
  deterministic, so the retried responses are byte-identical.  A worker
  past its respawn budget, or whose respawn fails, is retired and its
  in-flight requests are placed again on the survivors.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import multiprocessing as mp
import os
import select
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.engine import Colarm, QueryOutcome, rule_family
from repro.core.persistence import load_index, save_index
from repro.core.plans import PlanKind, plan_from_name
from repro.core.query import LocalizedQuery
from repro.errors import DataError, ServiceClosedError, ServiceError
from repro.serving import QueryService, RequestTrace, ServedQuery, _Flight

__all__ = [
    "ClusterConfig",
    "ClusterService",
    "EpochInfo",
    "EpochPublisher",
    "open_epoch",
    "read_epoch",
    "private_rss_kb",
]

EPOCH_FILE = "EPOCH.json"

#: Published snapshots kept on disk: the current epoch and the one before
#: it, which a worker still mid-reload may hold open.
KEEP_SNAPSHOTS = 2


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
        return asdict(self)


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
        save_index(index, self.directory / snapshot,
                   weights=self.engine.optimizer.weights, compress=False)
        info = EpochInfo(epoch=epoch, snapshot=snapshot,
                         generation=index.generation,
                         n_records=index.table.n_records,
                         expand=self.engine.expand)
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


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the router and its workers.

    There is no cache knob: the cluster caches exactly when the writer
    engine handed to :class:`ClusterService` has a cache
    (:meth:`~repro.core.engine.Colarm.enable_cache`), and that cache, in
    the router, is the only one — workers run cacheless.
    """

    workers: int = 2                 #: worker processes to spawn
    max_respawns: int = 2            #: crash respawns per worker slot
    ready_timeout_s: float = 120.0   #: worker must load within this bound

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")


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


def open_epoch(directory: Path, min_epoch: int = 1) -> tuple[EpochInfo, Colarm]:
    """Open the published epoch: mmap its snapshot, serve it cacheless.

    Raises ``DataError`` when no epoch at or past ``min_epoch`` is
    published in ``directory``, or its snapshot cannot be read.
    ``verify="stored"`` because the snapshot came from this cluster's
    own writer: tidsets are still cross-checked bit-for-bit against the
    archive's kernel matrices, but no miner runs — the mining heap
    watermark would otherwise dominate the worker's unique RSS and
    defeat the point of sharing the index via mmap.  No rule cache:
    repeats are served by the router's, before they route.
    """
    info = read_epoch(directory)
    if info is None or info.epoch < min_epoch:
        raise DataError(
            f"epoch {min_epoch} required but "
            f"{info.epoch if info else None} published in {directory}"
        )
    index, weights = load_index(
        info.snapshot_path(directory), mmap_mode="r", verify="stored"
    )
    # Continue the published generation lineage: stamps issued here are
    # comparable with every other worker's and the writer's.
    index.clock.base = info.generation - index.generation
    return info, Colarm.from_index(index, weights=weights, expand=info.expand)


def _worker_main(worker_id: int, conn, directory: str) -> None:
    """One worker process: a synchronous loop over its pipe.

    Messages are handled one at a time, in arrival order — a reload
    runs between two requests, so none observes half of each snapshot.
    """
    # Under the fork start method the child inherits the parent's whole
    # heap copy-on-write — including the writer engine's tidsets.  Freeze
    # those inherited objects so the cyclic collector never traverses
    # (and thereby privately copies) pages this worker will never use;
    # the worker's own index arrives as a read-only mmap of the snapshot.
    gc.collect()
    gc.freeze()
    directory = Path(directory)
    baseline_kb = private_rss_kb()
    info, engine = open_epoch(directory)
    _trim_heap()
    n_served = n_reloads = 0

    def ensure_epoch(min_epoch: int) -> None:
        nonlocal info, engine, n_reloads
        if info.epoch < min_epoch:
            # Mapped before the old epoch is dropped: if the open raises,
            # this worker still serves the epoch it had.
            info, engine = open_epoch(directory, min_epoch)
            n_reloads += 1
            _trim_heap()

    conn.send(("ready", worker_id))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return  # the router is gone: nobody to answer
        tag = msg[0]
        if tag == "query":
            _, req_id, q, plan_name, use_cache, min_epoch = msg
            try:
                ensure_epoch(min_epoch)
                t0 = time.monotonic()
                outcome = engine.serve_fresh(
                    q, plan_from_name(plan_name) if plan_name else None,
                    use_cache,
                )
                total_s = time.monotonic() - t0
                n_served += 1
                reply = ("ok", req_id, {
                    "rules": outcome.rules,
                    "plan": outcome.plan,
                    "dq_size": outcome.dq_size,
                    "total_s": total_s,
                    "worker": worker_id,
                    "epoch": info.epoch,
                    "generation": info.generation,
                })
            except Exception as exc:  # noqa: BLE001 — the router re-raises it
                reply = ("err", req_id, exc)
            conn.send(reply)
        elif tag == "reload":
            try:
                ensure_epoch(msg[1])
            except Exception:  # noqa: BLE001
                pass  # the first request stamped with it retries, and reports
        elif tag == "stats":
            conn.send(("stats", msg[1], {
                "worker": worker_id, "epoch": info.epoch,
                "generation": info.generation, "served": n_served,
                "n_reloads": n_reloads,
            }))
        elif tag == "rss":
            current = private_rss_kb()
            conn.send(("rss", msg[1], {
                "worker": worker_id, "baseline_kb": baseline_kb,
                "private_kb": current,
                "unique_kb": (
                    None if current is None or baseline_kb is None
                    else current - baseline_kb
                ),
            }))
        elif tag == "stop":
            conn.send(("bye", worker_id))
            conn.close()
            return


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


class _Pending:
    """One request the router has sent but not yet resolved."""

    __slots__ = ("future", "worker", "message")

    def __init__(self, future, worker, message):
        self.future = future
        self.worker = worker
        self.message = message


class ClusterService(QueryService):
    """The asyncio router over ``W`` mmap-shared worker processes.

    A :class:`~repro.serving.QueryService` whose misses run on worker
    pipes and whose engine thread is the writer's (ingest, remove,
    publish and the joins of worker processes run on it).  Construct
    with the *writer* engine (the one that owns mutation) and a
    snapshot directory, ``await start()``, then :meth:`submit` from any
    number of tasks; ``async with`` does the start/stop pair.  All
    public methods must be called from the event loop thread.
    """

    def __init__(self, engine: Colarm, directory: str | Path,
                 config: ClusterConfig | None = None):
        super().__init__(engine)
        self.directory = Path(directory)
        self.config = config or ClusterConfig()
        self.publisher = EpochPublisher(engine, self.directory)
        self._handles: dict[int, _WorkerHandle] = {}
        self._pending: dict[int, _Pending] = {}
        self._req_ids = itertools.count(1)
        self._min_epoch = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self.route_counts: dict[int, int] = {}
        self.n_crashes = 0
        self.n_respawns = 0
        self.n_rerouted = 0
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
        await self._on_engine_thread(self.publisher.publish)
        self._min_epoch = self.publisher.epoch
        await asyncio.gather(
            *(self._spawn(worker_id) for worker_id in range(self.config.workers))
        )
        for worker_id in self._handles:
            self.route_counts.setdefault(worker_id, 0)
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop every worker, then the writer thread.

        The router queues nothing, so there is nothing for ``drain`` to
        serve or shed: a worker answers what it was sent before its stop
        message, and a request still unanswered after that fails with
        :class:`~repro.errors.ServiceClosedError`.
        """
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
        self._engine_thread.shutdown(wait=True)

    async def _stop_worker(self, handle: _WorkerHandle) -> None:
        handle.stopping = True
        try:
            self._post(handle.id, ("stop",))
        except (KeyError, OSError):
            pass
        process = handle.process
        await self._on_engine_thread(process.join, 30)
        if process.is_alive():  # pragma: no cover — stuck worker backstop
            process.terminate()
            await self._on_engine_thread(process.join, 5)
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
            args=(worker_id, child, str(self.directory)),
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
            if handle is not None and not handle.ready.done():
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
                    await self._on_engine_thread(handle.process.join, 5)
                self._retire(handle, orphans)
                return
            for pending in orphans:
                try:
                    self._post(handle.id, pending.message)
                except (KeyError, OSError):  # pragma: no cover
                    pass  # the new pipe died too; the next EOF re-drives
        else:
            self._retire(handle, orphans)

    def _retire(self, handle: _WorkerHandle, orphans) -> None:
        """Drop a worker and place its in-flight queries again by load."""
        self._handles.pop(handle.id, None)
        for pending in orphans:
            if pending.message[0] != "query" or not self._handles:
                if not pending.future.done():
                    pending.future.set_exception(ServiceError(
                        f"worker {handle.id} died with no successor"
                    ))
                self._pending.pop(pending.message[1], None)
                continue
            pending.worker = self._place()
            self.n_rerouted += 1
            try:
                self._post(pending.worker, pending.message)
            except (KeyError, OSError):  # pragma: no cover
                pass  # the successor's EOF handler will re-drive it

    # -- requests ----------------------------------------------------------

    def _outstanding(self) -> dict[int, int]:
        """Each live worker's load: its routed ``"query"`` messages still
        in ``_pending``."""
        load = dict.fromkeys(self.workers, 0)
        for pending in self._pending.values():
            if pending.message[0] == "query" and pending.worker in load:
                load[pending.worker] += 1
        return load

    def _place(self) -> int:
        """The worker a routed request goes to: the least-loaded live
        one, the lowest id on a tie."""
        load = self._outstanding()
        if not load:
            raise ServiceError("no live workers")
        return min(load, key=lambda w: (load[w], w))

    def _send(self, worker_id: int, message: tuple) -> asyncio.Future:
        future = self._loop.create_future()
        self._pending[message[1]] = _Pending(future, worker_id, message)
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
    ) -> ServedQuery:
        """Answer one request: from the router's cache when it holds the
        answer, else from the miss in flight with the same identity and
        epoch stamp, else from the worker :meth:`_place` picks.

        The answer is a :class:`~repro.serving.ServedQuery` whose
        ``worker`` names the process that executed it (``None``: the
        router's cache) and whose ``epoch`` is the one it was served at.

        Raises the :class:`~repro.errors.QueryError` of a request that
        does not parse or validate.  A routed answer the worker served at
        the epoch the router stamps fills the cache for the next repeat;
        ``use_cache=False`` neither consults nor fills it, and neither
        joins another miss nor is joined.
        """
        return await self._intake(request, plan, use_cache)

    def _stamp(self) -> int:
        """The epoch a request may be served at: a worker behind it
        reloads first."""
        return self._min_epoch

    def _dispatch(self, flight: _Flight) -> None:
        """Send the flight down the least-loaded live worker's pipe; its
        answer fills the router's cache, then fans out."""
        try:
            worker_id = self._place()
        except ServiceError:
            self.stats.errors += 1
            raise
        self.route_counts[worker_id] = self.route_counts.get(worker_id, 0) + 1
        kind = flight.plan
        routed = self._send(worker_id, (
            "query", next(self._req_ids), flight.query,
            None if kind is None else kind.value, flight.use_cache,
            flight.stamp,
        ))
        routed.add_done_callback(lambda done: self._answered(flight, done))

    def _answered(self, flight: _Flight, routed: asyncio.Future) -> None:
        """A worker answered a routed flight (or it failed)."""
        exc = routed.exception()
        if exc is not None:
            self._fail_flight(flight, exc)
            return
        payload = routed.result()
        cache = self.engine.cache if flight.use_cache else None
        if cache is not None and payload["epoch"] == self._min_epoch:
            # Refused if the writer has mutated past the served generation.
            cache.put_rules(
                flight.query, payload["rules"], payload["dq_size"],
                family=rule_family(payload["plan"]),
                generation=payload["generation"],
            )
        fanout = len(flight.waiters)
        plan, total_s = payload["plan"], payload["total_s"]
        outcome = QueryOutcome.unpriced(
            payload["rules"], plan, forced=flight.plan is not None,
            elapsed=total_s, dq_size=payload["dq_size"], cached=False,
        )

        def answer(_t_submit: float, leader: bool) -> ServedQuery:
            return ServedQuery(
                outcome=outcome, worker=payload["worker"],
                epoch=payload["epoch"], trace=RequestTrace(
                    execute_s=total_s, total_s=total_s, coalesced=fanout,
                    leader=leader, plan=plan,
                    generation=payload["generation"],
                ),
            )

        self._fan_out(flight, time.monotonic(), answer)

    # -- mutation: the single writer ---------------------------------------

    async def ingest(self, records, publish: bool = True) -> int:
        """Append records through the writer's delta store.

        The mutation becomes query-visible at the next :meth:`publish`
        (immediately, with ``publish=True``): that is the linearization
        point of the epoch-publish protocol.  Returns the writer's new
        generation.
        """
        return await self._published(super().ingest(records), publish)

    async def remove(self, tids, publish: bool = True) -> int:
        """Delete records by tid through the writer's delta store."""
        return await self._published(super().remove(tids), publish)

    async def _published(self, mutation, publish: bool) -> int:
        generation = await mutation
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
        info = await self._on_engine_thread(self.publisher.publish)
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
        """The live worker ids, ascending."""
        return tuple(sorted(self._handles))

    async def worker_stats(self) -> list[dict]:
        """Per-worker counters: requests served, epoch, reload count."""
        return await self._ask_all("stats")

    async def worker_rss(self) -> list[dict]:
        """Per-worker private-RSS reports (see :func:`private_rss_kb`)."""
        return await self._ask_all("rss")

    async def _ask_all(self, tag: str) -> list[dict]:
        return list(await asyncio.gather(*(
            self._send(worker_id, (tag, next(self._req_ids)))
            for worker_id in self.workers
        )))

    def snapshot(self) -> dict:
        """The service's stats ledger (:meth:`QueryService.snapshot`),
        the router's counters, and the router cache's ledger under
        ``"cache"`` (``None`` without a cache); per-worker detail is
        async: use :meth:`worker_stats`.

        ``"routing"`` counts where each request was sent and
        ``"outstanding"`` the routed requests in flight per worker."""
        out = super().snapshot()
        out.update({
            "workers": list(self.workers),
            "epoch": self.publisher.epoch,
            "min_epoch": self._min_epoch,
            "publishes": self.publisher.n_publishes,
            "routed": sum(self.route_counts.values()),
            "routing": {
                str(w): self.route_counts.get(w, 0) for w in self.workers
            },
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
        })
        return out
