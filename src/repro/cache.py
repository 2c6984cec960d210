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
*landmark* entries (``hits >= LANDMARK_HITS``), which are only evicted
once no cold entry remains — a scan of one-off focal regions cannot
flush the hot set.  Correctness: every entry is stamped
with the index generation (the index's mutation counter) at insert; a
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

from repro.core.query import canonical_focal_key
from repro.dataset.schema import Schema
from repro.itemsets.rules import RuleBlock, rules_from_subset_lattices
from repro.kernels import SubsetCells

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.core.maintenance import MaintainedIndex
    from repro.core.query import LocalizedQuery

__all__ = [
    "CachedLattice",
    "CacheProbe",
    "CacheStats",
    "RuleCache",
    "MIP_FAMILY",
    "ARM_FAMILY",
    "LANDMARK_HITS",
]

#: Plan families a rules entry can belong to.  The five MIP plans return
#: identical rule sets, so they share one family; ARM's locally-closed
#: rule set is its own.
MIP_FAMILY = "mip"
ARM_FAMILY = "arm"

#: Serves after which an entry is a landmark, evicted only once no cold
#: entry remains.
LANDMARK_HITS = 4

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
    """One focal region's sub-itemset cell counts.

    ``cells`` is the :class:`~repro.kernels.SubsetCells` of one
    :meth:`~repro.kernels.FocalKernel.count_subset_lattice` call — the
    sources' id matrix, widths and cell offsets, with the flat int32
    sub-itemset supports and their positions in the table's id-tuple
    order (eight bytes a cell): exactly the intermediate
    :func:`repro.core.operators._rules_from_qualified` builds before rule
    extraction (stored :meth:`~repro.kernels.SubsetCells.narrowed`);
    ``schema`` is the one the ids belong to.  ``extract`` replays the
    extraction deterministically, so a lattice hit is byte-identical to
    the fresh MIP-plan execution for any ``minconf``.  ``extract_min_count`` is the expanded-mode frequency
    floor (``None`` in closed mode, where the sources are already
    qualified closures).
    """

    cells: SubsetCells
    dq_size: int
    extract_min_count: int | None
    schema: Schema

    def extract(self, minconf: float) -> RuleBlock:
        """Replay rule extraction from the cached counts."""
        return rules_from_subset_lattices(
            self.cells, self.dq_size, minconf,
            schema=self.schema, min_count=self.extract_min_count,
        )

    def nbytes(self) -> int:
        return self.cells.nbytes


@dataclass
class _Entry:
    kind: str                   # "rules" | "lattice"
    payload: object             # RuleBlock | CachedLattice
    nbytes: int
    generation: int
    dq_size: int                # |D^Q| of the execution that made it
    hits: int = 0


class RuleCache:
    """The budget-bound materialized-result tier of one engine.

    Bound to the engine's delta store, which holds the live index, so
    invalidation (the live index's mutation counter) and key
    canonicalization (full-domain selections are dropped, so queries
    naming the same focal subset differently share entries) need no extra
    plumbing.  ``expand`` mirrors the owning engine's mode and is part of
    every key.

    Thread-safe: one lock guards the entry table, the LRU order, the byte
    accounting and :attr:`stats`, so a serving thread can probe-and-serve
    a hit while another thread populates, evicts or invalidates — no
    caller needs to be on the serving layer's engine thread to touch the
    cache.
    """

    def __init__(
        self,
        store: "MaintainedIndex",
        budget_bytes: int = 64 << 20,
        expand: bool = False,
    ):
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.store = store
        #: The schema's domain sizes (fixed for the life of a lineage of
        #: indexes), kept so building a key does not rebuild the tuple.
        self._cardinalities = store.index.cardinalities
        self.expand = expand
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
        """The live index's mutation counter — the invalidation token."""
        return self.store.index.generation

    def focal_key(self, query: "LocalizedQuery") -> tuple:
        """Canonical focal-subset key: full-domain selections dropped.

        Two queries selecting the same records — one naming an attribute's
        entire domain explicitly, one omitting it — share every cache
        entry (and :mod:`repro.core.multiquery` answers them from one plan
        execution, :mod:`repro.serving` coalesces them onto one).
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
        for array in lattice.cells.arrays():
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

        Cold entries (fewer than ``LANDMARK_HITS`` serves) go first in LRU
        order; landmarks are only reclaimed when no cold entry remains —
        so a sweep of one-off regions evicts itself, not the hot set.
        """
        while self.stats.current_bytes > self.stats.budget_bytes:
            victim_key = None
            for key, entry in self._entries.items():
                if entry.hits < LANDMARK_HITS:
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
        """Drop every entry; returns the count.  The engine calls it when
        a fold installs a new index, whose generation clock starts past
        the old one's: every stamp is stale anyway, and clearing now keeps
        the footprint honest instead of leaking dead payloads until
        probe-time drops find them."""
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self._itemsets.clear()
            self.stats.stale_drops += n
            self.stats.current_bytes = 0
            return n

    def __len__(self) -> int:
        return len(self._entries)

    def entries_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {"rules": 0, "lattice": 0}
        with self._lock:
            for entry in self._entries.values():
                out[entry.kind] += 1
        return out
