"""Span recording for the traced run — the only place spans come from.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install` swaps
the public callables of each layer for recording wrappers *by attribute*
(module globals and class attributes) and :meth:`Tracer.uninstall` puts the
originals back.  A span is ``[name, start, end, parent, op]``; spans live in
per-thread lists until :meth:`Tracer.finish` merges them.

* ``parent`` is the enclosing span on the same thread.  Work that hops
  threads (``QueryService`` prices and executes on its pool) is re-attached
  through ``op``: the harness binds each request's query object to its op
  index, the entry-point wrappers look the object up, and :meth:`finish`
  adopts a thread-root span into the client span of the same op (and the
  writer thread's work into the ``cluster.publish`` span that awaited it).
* Self time is duration minus the children's durations (children of one
  span never overlap: each layer calls the next synchronously).
* Worker *processes* are forked after install and inherit the wrappers;
  there they pass straight through (``os.getpid()`` differs), so a cluster
  worker is seen only from the router side.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import threading
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)

#: Threads the engine starts for background folds; their spans and counts
#: are reported apart (``maintenance.fold_build_s``), not as query work.
_BACKGROUND_THREADS = ("colarm-recompact",)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self.registered = False
        self.suspended = False


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self._tls = _ThreadState()
        #: (spans, counts, background?) of every thread that recorded.
        self._threads: list[tuple[list[list], dict[str, int], bool]] = []
        self._lock = threading.Lock()
        self._ops: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: (start, duration) of poll_maintenance calls that installed a fold.
        self.install_stalls: list[tuple[float, float]] = []
        self.spans: list[list] = []
        self._background: set[int] = set()

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = self._tls
        if not st.registered:
            st.registered = True
            background = threading.current_thread().name.startswith(
                _BACKGROUND_THREADS
            )
            with self._lock:
                self._threads.append((st.spans, st.counts, background))
        return st

    def counts(self) -> dict[str, int]:
        """Counts taken at the span boundaries, foreground threads only."""
        total: dict[str, int] = defaultdict(int)
        with self._lock:
            threads = list(self._threads)
        for _spans, counts, background in threads:
            if not background:
                for key, value in counts.items():
                    total[key] += value
        return total

    @contextlib.contextmanager
    def suspended(self):
        """Record nothing from this thread inside the block (the harness's
        own oracle queries must not count as the system's work)."""
        st = self._state()
        st.suspended = True
        try:
            yield
        finally:
            st.suspended = False

    def bind(self, query: object, op: int) -> None:
        """Name the op a query object belongs to (looked up across threads)."""
        self._ops[id(query)] = op

    def unbind(self, query: object) -> None:
        self._ops.pop(id(query), None)

    def _enter(self, name: str, op_source: object) -> tuple[_ThreadState, list]:
        st = self._state()
        if op_source is not None and not st.stack:
            st.op = self._ops.get(id(op_source), -1)
        rec = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1, st.op]
        st.stack.append(len(st.spans))
        st.spans.append(rec)
        rec[START] = perf_counter()
        return st, rec

    @staticmethod
    def _exit(st: _ThreadState, rec: list) -> None:
        rec[END] = perf_counter()
        st.stack.pop()
        if not st.stack:
            st.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around harness code (set-up steps that are not one call)."""
        st, rec = self._enter(name, None)
        try:
            yield
        finally:
            self._exit(st, rec)

    def _wrap(self, fn, name: str, op_arg: int | None, observe):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if os.getpid() != tracer.pid or tracer._tls.suspended:
                    return await fn(*args, **kwargs)
                # Coroutines of two clients interleave on one thread, so a
                # stack cannot nest them: record a flat, op-tagged span.
                rec = [name, perf_counter(), 0.0, -1,
                       tracer._ops.get(id(args[op_arg]), -1)
                       if op_arg is not None else -1]
                try:
                    return await fn(*args, **kwargs)
                finally:
                    rec[END] = perf_counter()
                    tracer._state().spans.append(rec)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid or tracer._tls.suspended:
                return fn(*args, **kwargs)
            st, rec = tracer._enter(
                name, args[op_arg] if op_arg is not None else None
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(st, rec)
            if observe is not None:
                observe(tracer, st.counts, args, result, rec)
            return result
        return traced

    def patch(self, owner: object, attr: str, name: str,
              op_arg: int | None = None, observe=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        wrapped = self._wrap(fn, name, op_arg, observe)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapped) if kind else wrapped)

    # -- the layer boundaries --------------------------------------------------

    def install(self) -> "Tracer":
        import repro.cache as cache
        import repro.cluster as cluster
        import repro.core.mipindex as mipindex
        import repro.core.operators as operators
        import repro.core.plans as plans
        import repro.kernels as kernels
        from repro.core.engine import Colarm
        from repro.core.optimizer import ColarmOptimizer
        from repro.rtree.flat import FlatRTree
        from repro.rtree.supported import SupportedRTree
        from repro.serving import QueryService

        p = self.patch
        # set-up
        p(mipindex, "charm", "itemsets.mine")
        p(SupportedRTree, "build", "rtree.build")
        p(mipindex, "gather_statistics", "stats.gather")
        p(Colarm, "calibrate", "calibration.calibrate")
        # optimizer
        p(ColarmOptimizer, "choose", "optimizer.choose", op_arg=1)
        p(ColarmOptimizer, "profile_for", "optimizer.profile")
        # operators (plans.py binds them by name, so patch them there)
        p(plans, "make_context", "operators.focus")
        p(plans, "op_search", "operators.search")
        p(plans, "op_supported_search", "operators.search")
        p(plans, "op_eliminate", "operators.eliminate")
        p(plans, "qualified_from_contained", "operators.eliminate")
        p(plans, "op_union", "operators.eliminate")
        p(plans, "op_verify", "operators.verify")
        p(plans, "op_supported_verify", "operators.verify")
        p(plans, "op_select", "operators.select")
        p(plans, "op_arm", "operators.arm")
        # R-tree, kernels, rule generation
        p(FlatRTree, "search_hits", "rtree.search", observe=_see_search)
        p(kernels, "and_count", "kernels.and_count", observe=_see_and_count)
        p(kernels, "project_rows", "kernels.project")
        p(kernels.FocalKernel, "count_subset_lattice", "kernels.lattice",
          observe=_see_lattice)
        p(operators, "rules_from_subset_lattices", "rules.extract")
        p(cache, "rules_from_subset_lattices", "rules.extract")
        # cache
        p(cache.RuleCache, "probe", "cache.probe")
        for attr in ("get_rules", "get_lattice", "put_rules", "put_lattice"):
            p(cache.RuleCache, attr, "cache.store")
        # engine facade and maintenance
        p(Colarm, "query", "engine.query", op_arg=1)
        p(Colarm, "append", "maintenance.append")
        p(Colarm, "delete", "maintenance.delete")
        p(Colarm, "poll_maintenance", "maintenance.poll", observe=_see_poll)
        # serving, persistence, cluster (router side)
        p(QueryService, "submit", "serving.submit", op_arg=1)
        p(cluster, "save_index", "persistence.save")
        p(cluster.ClusterService, "start", "cluster.start")
        p(cluster.ClusterService, "submit", "cluster.submit", op_arg=1)
        p(cluster.ClusterService, "publish", "cluster.publish")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------------

    def finish(self) -> list[list]:
        """Merge the per-thread lists; adopt thread roots by op."""
        merged: list[list] = []
        client: dict[int, int] = {}
        with self._lock:
            threads = list(self._threads)
        for spans, _counts, background in threads:
            base = len(merged)
            if background:
                self._background.update(range(base, base + len(spans)))
            for rec in spans:
                rec = list(rec)
                if rec[PARENT] >= 0:
                    rec[PARENT] += base
                merged.append(rec)
        for i, rec in enumerate(merged):
            if rec[NAME] in ("serving.submit", "cluster.submit") and rec[OP] >= 0:
                client[rec[OP]] = i
        publishes = [(rec[START], rec[END], i) for i, rec in enumerate(merged)
                     if rec[NAME] == "cluster.publish"]
        for i, rec in enumerate(merged):
            if rec[PARENT] >= 0:
                continue
            if rec[OP] in client and client[rec[OP]] != i:
                rec[PARENT] = client[rec[OP]]
            elif rec[OP] < 0 and not rec[NAME].startswith("cluster."):
                # The writer thread works (folds, cache seeding, snapshot
                # save) while the router's publish() awaits it.
                for start, end, j in publishes:
                    if start <= rec[START] and rec[END] <= end:
                        rec[PARENT] = j
                        break
        self.spans = merged
        return merged

    def self_times(self, windows: list[tuple[float, float]],
                   background: bool = False) -> dict[str, float]:
        """Self seconds per span name, over the foreground (or background)
        spans started inside one of the windows."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans):
            if _inside(rec, windows) and (i in self._background) == background:
                out[rec[NAME]] += max(0.0, rec[END] - rec[START] - child[i])
        return out

    def durations(self, name: str,
                  windows: list[tuple[float, float]]) -> list[float]:
        return [rec[END] - rec[START] for rec in self.spans
                if rec[NAME] == name and _inside(rec, windows)]


def _inside(rec: list, windows: list[tuple[float, float]]) -> bool:
    return any(since <= rec[START] < until for since, until in windows)


def _see_search(tracer: Tracer, counts, args, result, rec) -> None:
    counts["rtree.nodes_visited"] += int(result.nodes_visited)


def _see_and_count(tracer: Tracer, counts, args, result, rec) -> None:
    counts["kernels.and_count_calls"] += 1
    counts["kernels.words_touched"] += int(args[0].size)


def _see_lattice(tracer: Tracer, counts, args, result, rec) -> None:
    kernel, itemsets = args[0], args[1]
    if len(itemsets):
        counts["kernels.words_touched"] += (
            len(itemsets) * (1 << len(itemsets[0])) * int(kernel.words)
        )


def _see_poll(tracer: Tracer, counts, args, result, rec) -> None:
    if result:
        tracer.install_stalls.append((rec[START], rec[END] - rec[START]))
