"""Sharded multi-process kernel execution over shared-memory arrays.

The packed-uint64 tidset matrices (:mod:`repro.kernels`) and the flat SoA
R-tree (:mod:`repro.rtree.flat`) are *record-partitionable*: a tidset row
is a sequence of 64-bit words, word ``w`` covering records ``64w ..
64w+63``, and every hot-path count — MIP qualification, table lookups,
the ``count_subset_lattice`` rule-generation kernel — is a popcount of an
AND of such rows.  Popcounts are sums over words, so splitting the record
universe into ``P`` contiguous shards *at the packed-word boundary* and
summing the per-shard partials reproduces the serial counts **exactly**
(integer sums, byte-identical; property-tested in
``tests/property/test_parallel_properties.py``).

This module builds on that invariant:

* :func:`shard_words` — split ``n_words`` into ``P`` contiguous word
  ranges (empty shards allowed when ``P > n_words``);
* :func:`and_count_partial` / :func:`popcount_rows_partial` /
  :func:`subset_lattice_partial` — the pure per-shard kernels, callable
  in-process (the property suite) or inside a worker (the pool);
* :class:`ShardedExecutor` — a persistent ``multiprocessing`` worker pool
  whose workers attach the kernel matrices and the flat R-tree per-level
  arrays through :mod:`multiprocessing.shared_memory` **by name**: only
  shard descriptors (array key, word range) and query payloads (row index
  vectors, one packed focal row) ever cross the pipe — never a matrix;
* :class:`ParallelContext` — the engine-facing handle threaded through
  :mod:`repro.core.operators`: decides per call whether the estimated
  work clears the fitted break-even point, dispatches shards, merges
  partials, and *falls back to serial* (returns ``None``) whenever the
  pool is broken, below break-even, or disabled.

Failure semantics: a worker death surfaces as
``concurrent.futures.process.BrokenProcessPool`` on the next dispatch;
the executor marks itself broken, the in-flight call returns ``None``,
and every caller serves the serial result instead — a crashed pool can
slow queries down but never change an answer.
"""

from __future__ import annotations

import atexit
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker, shared_memory

import numpy as np

from repro import kernels
from repro.core.mipindex import MIPIndex
from repro.rtree.flat import FlatRTree
from repro.rtree.geometry import Rect

__all__ = [
    "shard_words",
    "and_count_partial",
    "popcount_rows_partial",
    "subset_lattice_partial",
    "available_cpus",
    "ParallelConfig",
    "ShardedExecutor",
    "ParallelContext",
]

_WORD_DTYPE = kernels._WORD_DTYPE

#: Shared-array keys used by :class:`ParallelContext`.
_KEY_MIPS = "mips"
_KEY_ITEMS = "items"
_KEY_RTREE = "rtree/"


def available_cpus() -> int:
    """Usable CPU count (affinity-aware; 1 when undetectable)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Shard geometry and the pure per-shard kernels
# ---------------------------------------------------------------------------


def shard_words(n_words: int, n_shards: int) -> list[tuple[int, int]]:
    """Split ``n_words`` into ``n_shards`` contiguous ``(lo, hi)`` ranges.

    Ranges are balanced to within one word and cover ``[0, n_words)``
    exactly; when ``n_shards > n_words`` the tail shards are empty
    (``lo == hi``), which every partial kernel handles (a zero-width
    slice popcounts to zero).
    """
    if n_words < 0:
        raise ValueError(f"n_words must be non-negative, got {n_words}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    base, extra = divmod(n_words, n_shards)
    bounds = [0]
    for k in range(n_shards):
        bounds.append(bounds[-1] + base + (1 if k < extra else 0))
    return [(bounds[k], bounds[k + 1]) for k in range(n_shards)]


def and_count_partial(
    matrix: np.ndarray, rows: np.ndarray, mask: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Per-shard qualification partial: ``popcount(matrix[rows, lo:hi] &
    mask[lo:hi])`` per row, as int64.

    Summing over a complete word partition equals
    ``kernels.and_count(matrix[rows], mask)`` exactly.
    """
    if hi <= lo or len(rows) == 0:
        return np.zeros(len(rows), dtype=np.int64)
    return kernels.popcount_rows(matrix[rows, lo:hi] & mask[lo:hi])


def popcount_rows_partial(
    matrix: np.ndarray, rows: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Per-shard row-popcount partial (table-lookup counts)."""
    if hi <= lo or len(rows) == 0:
        return np.zeros(len(rows), dtype=np.int64)
    return kernels.popcount_rows(matrix[rows, lo:hi])


def subset_lattice_partial(
    item_matrix: np.ndarray,
    idx: np.ndarray,
    mask: np.ndarray,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Per-shard subset-lattice partial: ``(m, 2**n)`` int64 counts.

    ``idx`` is an ``(m, n)`` matrix of *item rows* into ``item_matrix``
    (``-1`` for items absent from the table: the empty tidset), ``mask``
    the packed focal row.  Entry ``[j, s]`` is the popcount, over words
    ``lo:hi``, of the AND of the focal row with the item rows selected by
    the bits of ``s`` — so the shard sum is ``|t(S) ∩ D^Q|``, exactly the
    counts :meth:`repro.kernels.FocalKernel.count_subset_lattice` produces
    (the projection invariant makes the focal-universe popcounts equal the
    full-width ones).  Sharding at full width instead of projecting keeps
    workers free of any per-query repack: the lattice root *is* the focal
    slice, and every lattice row inherits it through the mask recurrence.

    Slab memory is chunked exactly like the serial kernel
    (:data:`repro.kernels.LATTICE_SLAB_BYTES`).
    """
    m, n = idx.shape
    size = 1 << n
    if m == 0:
        return np.zeros((0, size), dtype=np.int64)
    span = hi - lo
    counts = np.zeros((m, size), dtype=np.int64)
    if span <= 0:
        return counts
    dq_slice = np.ascontiguousarray(mask[lo:hi])
    counts[:, 0] = int(kernels.popcount_rows(dq_slice[None, :])[0])
    if n == 0:
        return counts
    rows = np.zeros((m, n, span), dtype=_WORD_DTYPE)
    valid = idx >= 0
    if valid.any():  # an all-absent idx (even an empty item_matrix) is fine
        rows[valid] = item_matrix[idx[valid], lo:hi]
    lowbit = [(s & -s).bit_length() - 1 for s in range(size)]
    chunk = max(1, kernels.LATTICE_SLAB_BYTES // (size * max(span, 1) * 8))
    for c_lo in range(0, m, chunk):
        c_hi = min(m, c_lo + chunk)
        lattice = np.empty((c_hi - c_lo, size, span), dtype=_WORD_DTYPE)
        lattice[:, 0] = dq_slice
        for s in range(1, size):
            np.bitwise_and(
                lattice[:, s & (s - 1)],
                rows[c_lo:c_hi, lowbit[s]],
                out=lattice[:, s],
            )
        counts[c_lo:c_hi] = kernels.popcount_rows(
            lattice.reshape(-1, span)
        ).reshape(c_hi - c_lo, size)
    return counts


# ---------------------------------------------------------------------------
# Worker-process side: attach shared arrays by name, serve shard ops
# ---------------------------------------------------------------------------

#: Worker-global views onto the parent's shared-memory arrays, keyed by
#: the registry names the initializer received.  Query payloads reference
#: arrays *by key*; the matrices themselves never cross the pipe.
_WORKER_ARRAYS: dict[str, np.ndarray] = {}
_WORKER_SHMS: list[shared_memory.SharedMemory] = []
_WORKER_TREES: dict[str, FlatRTree] = {}


def _worker_init(
    descriptors: dict[str, tuple[str, tuple[int, ...], str]],
    own_tracker: bool,
) -> None:
    """Pool initializer: map every registered array, read-only.

    ``own_tracker`` is True for spawn-style workers, which run their own
    resource-tracker process: attaching registers each segment there, and
    without unregistering, that tracker would unlink the parent's live
    segments at worker exit.  Fork workers *share* the parent's tracker —
    unregistering from one would erase the parent's own bookkeeping — so
    they must leave it alone.
    """
    _WORKER_ARRAYS.clear()
    _WORKER_TREES.clear()
    for key, (name, shape, dtype) in descriptors.items():
        shm = shared_memory.SharedMemory(name=name)
        if own_tracker:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals shifted
                pass
        _WORKER_SHMS.append(shm)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        view.setflags(write=False)
        _WORKER_ARRAYS[key] = view
    atexit.register(_worker_close)


def _worker_close() -> None:  # pragma: no cover - process teardown
    _WORKER_ARRAYS.clear()
    _WORKER_TREES.clear()
    while _WORKER_SHMS:
        try:
            _WORKER_SHMS.pop().close()
        except Exception:
            pass


def _w_ping(payload: int = 0) -> int:
    """Round-trip no-op: measures per-dispatch overhead."""
    return payload


def _w_and_count(
    key: str, rows: bytes, mask: bytes, lo: int, hi: int
) -> bytes:
    row_idx = np.frombuffer(rows, dtype=np.int64).astype(np.intp, copy=False)
    mask_row = np.frombuffer(mask, dtype=_WORD_DTYPE)
    out = and_count_partial(_WORKER_ARRAYS[key], row_idx, mask_row, lo, hi)
    return out.tobytes()


def _w_popcount_rows(key: str, rows: bytes, lo: int, hi: int) -> bytes:
    row_idx = np.frombuffer(rows, dtype=np.int64).astype(np.intp, copy=False)
    out = popcount_rows_partial(_WORKER_ARRAYS[key], row_idx, lo, hi)
    return out.tobytes()


def _w_subset_lattice(
    key: str, idx: bytes, shape: tuple[int, int], mask: bytes, lo: int, hi: int
) -> bytes:
    idx_matrix = np.frombuffer(idx, dtype=np.int64).reshape(shape)
    mask_row = np.frombuffer(mask, dtype=_WORD_DTYPE)
    out = subset_lattice_partial(
        _WORKER_ARRAYS[key], idx_matrix, mask_row, lo, hi
    )
    return out.tobytes()


def _w_search(
    prefix: str,
    q_lo: tuple[int, ...],
    q_hi: tuple[int, ...],
    min_count: int | None,
) -> tuple[bytes, bytes, int]:
    """Flat R-tree window search served entirely from the shared arrays.

    The tree view is reconstructed lazily (and cached) from the per-level
    SoA arrays the parent registered — zero-copy: the worker's FlatLevel
    arrays alias the parent's shared-memory pages.
    """
    tree = _WORKER_TREES.get(prefix)
    if tree is None:
        tree = _WORKER_TREES[prefix] = FlatRTree.from_arrays({
            key[len(prefix):]: arr
            for key, arr in _WORKER_ARRAYS.items()
            if key.startswith(prefix)
        })
    hits = tree.search_hits(Rect(q_lo, q_hi), min_count=min_count)
    return (
        hits.rows.astype(np.int64, copy=False).tobytes(),
        hits.counts.astype(np.int64, copy=False).tobytes(),
        hits.nodes_visited,
    )


# ---------------------------------------------------------------------------
# Parent-process side: registry, pool, shard dispatch, exact merges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelConfig:
    """Opt-in parallel execution settings (``engine.configure(parallel=...)``).

    ``n_shards`` is the record-partition count P; ``n_workers`` defaults
    to ``min(P, available_cpus())``.  ``force`` bypasses the fitted
    break-even check (benchmarks and exactness tests want the sharded
    path even where it cannot win, e.g. single-core CI containers);
    correctness never depends on it.
    """

    n_shards: int = 4
    n_workers: int | None = None
    start_method: str | None = None
    force: bool = False


class _PoolBroken(RuntimeError):
    """Internal: the worker pool can no longer serve dispatches."""


class ShardedExecutor:
    """Shared-memory registry plus the persistent worker pool.

    ``arrays`` maps registry keys to numpy arrays; each is copied **once**
    into a :class:`multiprocessing.shared_memory.SharedMemory` block at
    construction, and workers attach by segment name in their initializer.
    After that, a dispatch ships only ``(key, shard range, payload)``
    tuples — for a qualification call that is one int64 row-index vector
    and one packed focal row (a few KiB), regardless of matrix size.
    """

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        config: ParallelConfig,
    ):
        self.config = config
        self.n_shards = int(config.n_shards)
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {self.n_shards}")
        self.n_workers = int(
            config.n_workers
            if config.n_workers is not None
            else max(1, min(self.n_shards, available_cpus()))
        )
        self._shms: list[shared_memory.SharedMemory] = []
        self._broken = False
        descriptors: dict[str, tuple[str, tuple[int, ...], str]] = {}
        for key, array in arrays.items():
            source = np.ascontiguousarray(array)
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, source.nbytes)
            )
            self._shms.append(shm)
            view = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
            view[...] = source
            descriptors[key] = (shm.name, source.shape, source.dtype.str)
        method = config.start_method
        if method is None:
            # fork shares the parent's imports (no per-worker numpy import)
            # and is available on every platform this repo targets; fall
            # back to the platform default elsewhere.
            try:
                ctx = get_context("fork")
            except ValueError:  # pragma: no cover - fork-less platform
                ctx = get_context()
        else:
            ctx = get_context(method)
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(descriptors, ctx.get_start_method() != "fork"),
        )
        self._finalize = atexit.register(self.close)
        # Spawn every worker now: dispatch-overhead calibration must see
        # steady-state round-trips, not worker start-up.
        self.ping_all()

    # -- lifecycle ---------------------------------------------------------

    @property
    def available(self) -> bool:
        return self._pool is not None and not self._broken

    def worker_pids(self) -> list[int]:
        """Live worker PIDs (test hook for the crash-fallback suite)."""
        if self._pool is None:
            return []
        return [p.pid for p in (self._pool._processes or {}).values()]

    def close(self) -> None:
        """Shut the pool down and release every shared segment."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        while self._shms:
            shm = self._shms.pop()
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover
            pass

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, fn, tasks: list[tuple]) -> list:
        """Submit one task per shard and gather results in shard order.

        Any pool-level failure (worker death, closed pool) marks the
        executor broken and raises :class:`_PoolBroken`; shard-op callers
        translate that into a ``None`` serial-fallback signal.
        """
        if not self.available:
            raise _PoolBroken("worker pool unavailable")
        assert self._pool is not None
        try:
            futures = [self._pool.submit(fn, *task) for task in tasks]
            return [f.result(timeout=120.0) for f in futures]
        except Exception as exc:
            self._broken = True
            raise _PoolBroken(str(exc)) from exc

    def ping_all(self) -> float:
        """One ping per worker; returns the round's wall time."""
        start = time.perf_counter()
        self._dispatch(_w_ping, [(k,) for k in range(self.n_workers)])
        return time.perf_counter() - start

    def measure_dispatch_overhead(self, rounds: int = 5) -> float:
        """Median per-task round-trip time of an empty shard dispatch."""
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            self._dispatch(_w_ping, [(k,) for k in range(self.n_shards)])
            samples.append((time.perf_counter() - start) / self.n_shards)
        return float(statistics.median(samples))

    # -- shard ops (exact merges) -----------------------------------------

    def and_count(
        self, key: str, rows: np.ndarray, mask: np.ndarray, n_words: int
    ) -> np.ndarray:
        """Sharded ``kernels.and_count(matrix[rows], mask)`` — exact."""
        rows64 = np.ascontiguousarray(rows, dtype=np.int64)
        payload = rows64.tobytes()
        mask_b = np.ascontiguousarray(mask).tobytes()
        parts = self._dispatch(
            _w_and_count,
            [
                (key, payload, mask_b, lo, hi)
                for lo, hi in shard_words(n_words, self.n_shards)
            ],
        )
        total = np.zeros(len(rows64), dtype=np.int64)
        for part in parts:
            total += np.frombuffer(part, dtype=np.int64)
        return total

    def popcount_rows(
        self, key: str, rows: np.ndarray, n_words: int
    ) -> np.ndarray:
        """Sharded ``kernels.popcount_rows(matrix[rows])`` — exact."""
        rows64 = np.ascontiguousarray(rows, dtype=np.int64)
        payload = rows64.tobytes()
        parts = self._dispatch(
            _w_popcount_rows,
            [
                (key, payload, lo, hi)
                for lo, hi in shard_words(n_words, self.n_shards)
            ],
        )
        total = np.zeros(len(rows64), dtype=np.int64)
        for part in parts:
            total += np.frombuffer(part, dtype=np.int64)
        return total

    def subset_lattice(
        self, key: str, idx: np.ndarray, mask: np.ndarray, n_words: int
    ) -> np.ndarray:
        """Sharded subset-lattice counts, merged exactly (int64 sums)."""
        idx64 = np.ascontiguousarray(idx, dtype=np.int64)
        payload = idx64.tobytes()
        shape = (int(idx64.shape[0]), int(idx64.shape[1]))
        parts = self._dispatch(
            _w_subset_lattice,
            [
                (key, payload, shape,
                 np.ascontiguousarray(mask).tobytes(), lo, hi)
                for lo, hi in shard_words(n_words, self.n_shards)
            ],
        )
        size = 1 << shape[1]
        total = np.zeros((shape[0], size), dtype=np.int64)
        for part in parts:
            total += np.frombuffer(part, dtype=np.int64).reshape(shape[0], size)
        return total

    def search(
        self,
        prefix: str,
        query: Rect,
        min_count: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Window search served by one worker from the shared tree arrays.

        Returns ``(payload rows, global counts, nodes_visited)`` —
        identical to the parent-side :meth:`FlatRTree.search_hits` (the
        traversal is deterministic over the very same arrays).  Exists to
        keep the *whole* candidate pipeline servable off-process (remote
        shard servers, the ROADMAP's service north-star); the in-process
        operators keep searching locally, where the arrays are already
        mapped.
        """
        rows_b, counts_b, visited = self._dispatch(
            _w_search,
            [(prefix, tuple(query.lows), tuple(query.highs), min_count)],
        )[0]
        return (
            np.frombuffer(rows_b, dtype=np.int64),
            np.frombuffer(counts_b, dtype=np.int64),
            int(visited),
        )


class ParallelContext:
    """The engine's handle on sharded execution for one MIP-index.

    Registers the index's kernel matrices (MIP tidsets, item tidsets) and
    the R-tree's per-level SoA arrays in shared memory,
    owns the worker pool, and serves the operator-facing sharded ops with
    break-even gating and serial fallback.  Created by
    ``Colarm.configure(parallel=...)``; explicitly opt-in.
    """

    def __init__(self, index: MIPIndex, config: ParallelConfig | None = None):
        self.config = config or ParallelConfig()
        self.index = index
        self.tidset_words = index.tidset_words
        matrix, _ = index.table.item_matrix()
        #: Item id -> row of the shared item matrix (-1: the item occurs
        #: in no main record, its tidset is empty).
        self._row_of_id = np.full(index.table.schema.n_items, -1, dtype=np.int64)
        self._row_of_id[index.table.item_ids()] = np.arange(len(matrix))
        arrays: dict[str, np.ndarray] = {
            _KEY_MIPS: index.mip_tidset_matrix,
            _KEY_ITEMS: matrix,
        }
        for key, arr in index.flat_rtree.to_arrays().items():
            arrays[_KEY_RTREE + key] = arr
        self.executor = ShardedExecutor(arrays, self.config)
        #: Median per-task dispatch overhead, measured on the live pool.
        self.dispatch_s = self.executor.measure_dispatch_overhead()
        #: Serial AND+popcount throughput (seconds per word) on this host,
        #: measured over the registered MIP matrix — the same work the
        #: shards split.
        self.word_s = self._measure_word_throughput()
        self.break_even_words = self._fit_break_even()

    # -- break-even model --------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.executor.n_shards

    @property
    def effective_workers(self) -> int:
        """Shards that can actually run concurrently on this host."""
        return max(
            1, min(self.executor.n_workers, self.n_shards, available_cpus())
        )

    def _measure_word_throughput(self, target_rows: int = 256) -> float:
        matrix = self.index.mip_tidset_matrix
        if matrix.size == 0:
            return 25e-12
        reps = max(1, target_rows // max(1, matrix.shape[0]))
        mask = np.full(matrix.shape[1], ~np.uint64(0), dtype=_WORD_DTYPE)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(reps):
                kernels.and_count(matrix, mask)
            best = min(best, (time.perf_counter() - start) / reps)
        return max(best / matrix.size, 1e-12)

    def _fit_break_even(self) -> float:
        """Words of AND+popcount work above which sharding wins.

        Sharding saves ``work * word_s * (1 - 1/P_eff)`` and costs
        ``n_shards * dispatch_s`` (merge cost is a few microseconds and
        is absorbed by the 1.5x safety margin).  With one effective
        worker there is nothing to save and the break-even is infinite —
        the optimizer and the operators then always run serial unless
        ``force`` is set.
        """
        p_eff = self.effective_workers
        if p_eff <= 1:
            return float("inf")
        saving_per_word = self.word_s * (1.0 - 1.0 / p_eff)
        return 1.5 * self.n_shards * self.dispatch_s / saving_per_word

    def should_shard(self, work_words: float) -> bool:
        """Break-even gate: is sharding expected to beat serial here?"""
        if not self.available:
            return False
        if self.config.force:
            return True
        return work_words >= self.break_even_words

    @property
    def available(self) -> bool:
        return self.executor.available

    def close(self) -> None:
        self.executor.close()

    # -- operator-facing sharded ops (None => caller runs serial) ----------

    def and_count_mips(
        self, rows: np.ndarray, packed_dq: np.ndarray
    ) -> np.ndarray | None:
        """Sharded MIP qualification counts, or ``None`` for serial."""
        if not self.should_shard(len(rows) * self.tidset_words):
            return None
        try:
            return self.executor.and_count(
                _KEY_MIPS, rows, packed_dq, self.tidset_words
            )
        except _PoolBroken:
            return None

    def count_subset_lattice(
        self, itemsets, packed_dq: np.ndarray, dq_size: int
    ) -> np.ndarray | None:
        """Sharded rule-generation lattice counts, or ``None`` for serial.

        Mirrors :meth:`repro.kernels.FocalKernel.count_subset_lattice`
        count for count for one same-width ``(m, n)`` batch of item ids
        (``counts[j, 0]`` is ``|D^Q|``), but over full-width shards of
        the *raw* item matrix ANDed with the focal row — no per-query
        projection.
        """
        m, n = itemsets.shape
        if m == 0:
            return np.zeros((0, 1), dtype=np.int64)
        work = m * (1 << n) * self.tidset_words
        if n == 0 or n >= 60 or not self.should_shard(work):
            return None
        idx = self._row_of_id.take(itemsets)
        try:
            counts = self.executor.subset_lattice(
                _KEY_ITEMS, idx, packed_dq, self.tidset_words
            )
        except _PoolBroken:
            return None
        # The empty sub-itemset column is |D^Q| by definition; the shard
        # sum reproduces it (popcounts of the focal slices), asserted here
        # as a cheap end-to-end merge check.
        if m and int(counts[0, 0]) != int(dq_size):  # pragma: no cover
            return None
        return counts

    def item_popcounts(self, rows: np.ndarray) -> np.ndarray | None:
        """Sharded global item supports (table-lookup counts)."""
        if not self.should_shard(len(rows) * self.tidset_words):
            return None
        try:
            return self.executor.popcount_rows(
                _KEY_ITEMS, rows, self.tidset_words
            )
        except _PoolBroken:
            return None

    def search_remote(self, query: Rect, min_count: int | None = None):
        """Worker-served SUPPORTED-SEARCH over the shared flat R-tree.

        ``None`` when the pool is down; otherwise ``(rows, counts,
        nodes_visited)`` identical to the parent-side traversal.
        """
        if not self.available:
            return None
        try:
            return self.executor.search(_KEY_RTREE, query, min_count)
        except _PoolBroken:
            return None

    # -- cost-model handoff ------------------------------------------------

    def cost_profile(self) -> "ParallelCostProfile":
        from repro.core.costs import ParallelCostProfile

        return ParallelCostProfile(
            n_shards=self.n_shards,
            effective_workers=self.effective_workers,
        )

    def describe(self) -> dict[str, float]:
        """Fitted parameters, for reports and the parallel benchmark."""
        return {
            "n_shards": float(self.n_shards),
            "n_workers": float(self.executor.n_workers),
            "effective_workers": float(self.effective_workers),
            "dispatch_s": self.dispatch_s,
            "word_s": self.word_s,
            "break_even_words": self.break_even_words,
        }

    def snapshot(self) -> dict:
        """:meth:`describe` plus pool liveness — what the serving layer's
        stats endpoint reports so a degraded-to-serial service is visible."""
        out: dict = dict(self.describe())
        out["available"] = self.available
        return out
