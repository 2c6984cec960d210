"""Budget-bound materialized rule caches (the space-time tradeoff tier).

Repeated-/overlapping-focal workloads — the workloads COLARM is built for
— re-mine the same hot regions over and over.  This module materializes,
per (focal subset, thresholds) key, the two reusable products of a plan
execution:

* the **rules tier** — the finished confidence-filtered rule list, one
  immutable columnar :class:`~repro.itemsets.rules.RuleBlock`, handed out
  as is on an exact-key repeat (a *full hit* is the probe and nothing
  else);
* the **lattice tier** — the subset-lattice count arrays from
  :meth:`repro.kernels.FocalKernel.count_subset_lattice` (PR 5's cheap,
  reusable intermediate).  A lattice hit replays rule extraction
  (:func:`repro.itemsets.rules.rules_from_subset_lattices`) at *any*
  ``minconf`` without SEARCH/ELIMINATE or any support counting — the
  counts are threshold-free above the entry's ``minsupp``.

A stored answer is served, not priced: each request makes one
:meth:`RuleCache.probe`, which says what the cache holds for it, and the
engine serves that — the rules block as is, or the lattice replayed at
the request's ``minconf`` — before the optimizer runs
(:meth:`repro.core.engine.Colarm.serve_cached`).  Only a miss is priced.

Policy: every entry is byte-accounted (a rules entry at its columns'
real ``nbytes``); inserts evict LRU-first under a byte budget, except
*landmark* entries (``hits >= landmark_hits``), which are only evicted
once no cold entry remains — a scan of one-off focal regions cannot
flush the hot set.  Correctness: every entry is stamped
with the index generation (the R-tree mutation counter) at insert; a
probe under any other generation drops the entry, so a mutated index can
never serve stale rules.  Rules from the from-scratch ARM plan are tagged
``family="arm"`` — in closed mode ARM returns rules over *locally* closed
itemsets, which may differ from the five (mutually identical) MIP plans —
so a cached entry only ever replays its own plan family.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.query import canonical_focal_key
from repro.dataset.schema import Schema
from repro.itemsets.rules import RuleBlock, rules_from_subset_lattices

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.core.mipindex import MIPIndex
    from repro.core.query import LocalizedQuery

__all__ = [
    "CachedLattice",
    "CacheProbe",
    "CacheStats",
    "RuleCache",
    "MIP_FAMILY",
    "ARM_FAMILY",
]

#: Plan families a rules entry can belong to.  The five MIP plans return
#: identical rule sets, so they share one family; ARM's locally-closed
#: rule set is its own.
MIP_FAMILY = "mip"
ARM_FAMILY = "arm"

#: Per-entry bookkeeping overhead (key tuple, OrderedDict slot, _Entry).
_ENTRY_BASE_BYTES = 256
#: Distinct source itemsets the cache shares between its blocks before it
#: forgets the table (the blocks keep theirs).
_SHARED_ITEMSETS_LIMIT = 1 << 16


@dataclass(frozen=True)
class CacheProbe:
    """What one cache probe found for a query.

    ``families`` lists the plan families holding a rules entry for the
    exact key, MIP first.  ``kind`` is the best tier found: ``"rules"``
    when any family does, else ``"lattice"`` (counts hit — rule
    extraction still due), else ``None`` (miss).  ``dq_size`` is the
    ``|D^Q|`` the found entries were computed over: one focal subset at
    one generation, so every live entry of the key agrees on it.
    """

    kind: str | None
    families: tuple[str, ...] = ()
    dq_size: int = 0


@dataclass
class CacheStats:
    """Running counters of the cache's behaviour (the hit/miss ledger)."""

    probes: int = 0
    rule_hits: int = 0
    lattice_hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected: int = 0        # entries larger than the whole budget
    stale_drops: int = 0     # entries dropped on a generation mismatch
    current_bytes: int = 0
    budget_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "probes": self.probes,
            "rule_hits": self.rule_hits,
            "lattice_hits": self.lattice_hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "stale_drops": self.stale_drops,
            "current_bytes": self.current_bytes,
            "budget_bytes": self.budget_bytes,
        }


@dataclass(frozen=True)
class CachedLattice:
    """One focal region's width-grouped subset-lattice counts.

    ``groups`` are the ``(ids, counts, order)`` width groups of one
    :meth:`~repro.kernels.FocalKernel.count_subset_lattice` call — each
    same-width source batch as an ``(m, n)`` matrix of item ids, with its
    ``(m, 2**n)`` int32 matrices of sub-itemset supports and of their
    positions in the table's id-tuple order (eight bytes a cell): exactly
    the intermediate :func:`repro.core.operators._rules_from_qualified`
    builds before rule extraction; ``schema`` is the one the ids belong
    to.  ``extract`` replays the extraction deterministically, so
    a lattice hit is byte-identical to the fresh MIP-plan execution for
    any ``minconf``.  ``extract_min_count`` is the expanded-mode frequency
    floor (``None`` in closed mode, where the sources are already
    qualified closures).
    """

    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    dq_size: int
    extract_min_count: int | None
    schema: Schema

    def extract(self, minconf: float) -> RuleBlock:
        """Replay rule extraction from the cached counts."""
        return rules_from_subset_lattices(
            self.groups, self.dq_size, minconf,
            schema=self.schema, min_count=self.extract_min_count,
        )

    def nbytes(self) -> int:
        return sum(array.nbytes for group in self.groups for array in group)


@dataclass
class _Entry:
    kind: str                   # "rules" | "lattice"
    payload: object             # RuleBlock | CachedLattice
    nbytes: int
    generation: int
    dq_size: int                # |D^Q| of the execution that made it
    hits: int = 0


class RuleCache:
    """The budget-bound materialized-result tier for one MIP-index.

    Bound to its index so invalidation (the R-tree mutation counter) and
    key canonicalization (full-domain selections are dropped, so queries
    naming the same focal subset differently share entries) need no extra
    plumbing.  ``expand`` mirrors the owning engine's mode and is part of
    every key.

    Thread-safe: one lock guards the entry table, the LRU order, the byte
    accounting and :attr:`stats`, so a serving thread can probe-and-serve
    a hit while another thread populates, evicts or rebinds — no caller
    needs the engine lock to touch the cache.
    """

    def __init__(
        self,
        index: "MIPIndex",
        budget_bytes: int = 64 << 20,
        landmark_hits: int = 4,
        expand: bool = False,
    ):
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        if landmark_hits < 1:
            raise ValueError(f"landmark_hits must be >= 1, got {landmark_hits}")
        self.index = index
        #: The schema's domain sizes (fixed for the life of a lineage of
        #: indexes), kept so building a key does not rebuild the tuple.
        self._cardinalities = index.cardinalities
        self.expand = expand
        self.landmark_hits = landmark_hits
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        #: Source itemsets of the cached blocks, one tuple each: every
        #: tuple a cached block holds is one more object for the cyclic
        #: collector to walk.
        self._itemsets: dict = {}
        self.stats = CacheStats(budget_bytes=budget_bytes)
        self._lock = threading.Lock()

    # -- keys and generations -------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        return self.stats.budget_bytes

    def generation(self) -> int:
        """The index's current mutation counter — the invalidation token."""
        return self.index.generation

    def focal_key(self, query: "LocalizedQuery") -> tuple:
        """Canonical focal-subset key: full-domain selections dropped.

        Two queries selecting the same records — one naming an attribute's
        entire domain explicitly, one omitting it — share every cache
        entry (and :mod:`repro.core.multiquery` counts them as one focal
        subset, :mod:`repro.serving` coalesces them onto one execution).
        """
        return canonical_focal_key(
            query.range_selections, self._cardinalities
        )

    def _aitem_key(self, query: "LocalizedQuery") -> tuple | None:
        if query.item_attributes is None:
            return None
        return tuple(sorted(query.item_attributes))

    def _rules_key(self, query: "LocalizedQuery", family: str) -> tuple:
        return (
            "rules",
            self.focal_key(query),
            self._aitem_key(query),
            self.expand,
            query.minsupp,
            query.minconf,
            family,
        )

    def _lattice_key(self, query: "LocalizedQuery") -> tuple:
        return (
            "lattice",
            self.focal_key(query),
            self._aitem_key(query),
            self.expand,
            query.minsupp,
        )

    # -- lookups ---------------------------------------------------------------

    def _live_entry(self, key: tuple) -> _Entry | None:
        """The entry at ``key`` if present *and* current-generation
        (lock held)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.generation != self.generation():
            del self._entries[key]
            self.stats.current_bytes -= entry.nbytes
            self.stats.stale_drops += 1
            return None
        return entry

    def _serve(self, key: tuple, entry: _Entry) -> object:
        """Count one serve of ``entry`` and hand out its payload (lock
        held) — the immutable block or the read-only lattice counts
        themselves, never a copy."""
        entry.hits += 1
        self._entries.move_to_end(key)
        if entry.kind == "rules":
            self.stats.rule_hits += 1
        else:
            self.stats.lattice_hits += 1
        return entry.payload

    def probe(self, query: "LocalizedQuery") -> CacheProbe:
        """What the cache holds for this query, at the current generation.

        The rules entries of both plan families, MIP first — it is what a
        fresh optimizer run of a repeated query would produce — and, when
        neither exists, the lattice-counts entry.  A probe never bumps LRU
        position or hit counts; only a serve (:meth:`get_rules`,
        :meth:`get_lattice`) does, so an entry evicted after the probe is
        simply not served.
        """
        with self._lock:
            self.stats.probes += 1
            families: list[str] = []
            for family in (MIP_FAMILY, ARM_FAMILY):
                entry = self._live_entry(self._rules_key(query, family))
                if entry is not None:
                    families.append(family)
                    dq_size = entry.dq_size
            if families:
                return CacheProbe("rules", tuple(families), dq_size)
            entry = self._live_entry(self._lattice_key(query))
            if entry is not None:
                return CacheProbe(kind="lattice", dq_size=entry.dq_size)
            self.stats.misses += 1
            return CacheProbe(kind=None)

    def get_rules(
        self, query: "LocalizedQuery", family: str = MIP_FAMILY
    ) -> RuleBlock | None:
        """Serve a full rules hit: the cached block itself (immutable)."""
        key = self._rules_key(query, family)
        with self._lock:
            entry = self._live_entry(key)
            if entry is None:
                return None
            return self._serve(key, entry)

    def get_lattice(self, query: "LocalizedQuery") -> CachedLattice | None:
        """Serve the focal region's lattice counts (shared, read-only)."""
        key = self._lattice_key(query)
        with self._lock:
            entry = self._live_entry(key)
            if entry is None:
                return None
            return self._serve(key, entry)

    # -- population ------------------------------------------------------------

    def put_rules(
        self,
        query: "LocalizedQuery",
        rules: RuleBlock,
        dq_size: int,
        family: str = MIP_FAMILY,
        generation: int | None = None,
    ) -> bool:
        """Insert one finished rule set (the block is stored as is),
        computed over a focal subset of ``dq_size`` records.

        ``generation`` is the caller's pre-execution snapshot; if the
        index has mutated since (the rules were computed against a tree
        that no longer exists), the insert is refused — stale results
        never enter the cache.
        """
        if family not in (MIP_FAMILY, ARM_FAMILY):
            raise ValueError(f"unknown rule family {family!r}")
        with self._lock:
            if len(self._itemsets) > _SHARED_ITEMSETS_LIMIT:
                self._itemsets.clear()
            rules.share_sources(self._itemsets)
        return self._insert(
            self._rules_key(query, family), "rules", rules,
            _ENTRY_BASE_BYTES + rules.nbytes, generation, dq_size,
        )

    def put_lattice(
        self,
        query: "LocalizedQuery",
        lattice: CachedLattice,
        generation: int | None = None,
    ) -> bool:
        """Insert one focal region's subset-lattice counts.  Every array
        of the lattice becomes read-only: each replay shares them."""
        for group in lattice.groups:
            for array in group:
                array.setflags(write=False)
        nbytes = _ENTRY_BASE_BYTES + lattice.nbytes()
        return self._insert(
            self._lattice_key(query), "lattice", lattice, nbytes, generation,
            lattice.dq_size,
        )

    def _insert(
        self,
        key: tuple,
        kind: str,
        payload: object,
        nbytes: int,
        generation: int | None,
        dq_size: int,
    ) -> bool:
        with self._lock:
            current = self.generation()
            if generation is not None and generation != current:
                self.stats.stale_drops += 1
                return False
            if nbytes > self.stats.budget_bytes:
                self.stats.rejected += 1
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self.stats.current_bytes -= old.nbytes
            self._entries[key] = _Entry(
                kind=kind, payload=payload, nbytes=nbytes,
                generation=current, dq_size=dq_size,
            )
            self.stats.current_bytes += nbytes
            self.stats.insertions += 1
            self._evict_to_budget()
            return True

    def _evict_to_budget(self) -> None:
        """LRU eviction with landmark protection (lock held).

        Cold entries (fewer than ``landmark_hits`` serves) go first in LRU
        order; landmarks are only reclaimed when no cold entry remains —
        so a sweep of one-off regions evicts itself, not the hot set.
        """
        while self.stats.current_bytes > self.stats.budget_bytes:
            victim_key = None
            for key, entry in self._entries.items():
                if entry.hits < self.landmark_hits:
                    victim_key = key
                    break
            if victim_key is None:
                # All landmarks: reclaim in LRU order after all.
                victim_key = next(iter(self._entries))
            entry = self._entries.pop(victim_key)
            self.stats.current_bytes -= entry.nbytes
            self.stats.evictions += 1

    # -- maintenance -----------------------------------------------------------

    def invalidate(self) -> int:
        """Drop every entry (e.g. after a bulk index rebuild); returns count."""
        with self._lock:
            return self._clear()

    def _clear(self) -> int:
        n = len(self._entries)
        self._entries.clear()
        self._itemsets.clear()
        self.stats.stale_drops += n
        self.stats.current_bytes = 0
        return n

    def rebind_index(self, index: "MIPIndex") -> None:
        """Point the cache at a recompacted replacement index.

        Every entry is dropped eagerly: the replacement's generation clock
        starts past the old index's, so all stamps are stale anyway —
        clearing now keeps the footprint honest instead of leaking dead
        payloads until probe-time drops find them.
        """
        with self._lock:
            self.index = index
            self._clear()

    def __len__(self) -> int:
        return len(self._entries)

    def entries_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {"rules": 0, "lattice": 0}
        with self._lock:
            for entry in self._entries.values():
                out[entry.kind] += 1
        return out
