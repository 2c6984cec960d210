"""The COLARM engine: the user-facing facade (Figure 2).

``Colarm`` wires the whole framework together: offline preprocessing
(MIP-index construction and optional cost calibration) at construction
time, then online query processing — optimizer-selected or forced-plan —
through :meth:`Colarm.query`.

    >>> from repro.dataset import salary_dataset
    >>> from repro.core.engine import Colarm
    >>> engine = Colarm(salary_dataset(), primary_support=0.15)
    >>> outcome = engine.query(
    ...     "REPORT LOCALIZED ASSOCIATION RULES FROM salary "
    ...     "WHERE RANGE Location = (Seattle) AND Gender = (F) "
    ...     "HAVING minsupport = 0.5 AND minconfidence = 0.8;"
    ... )
    >>> outcome.n_rules > 0
    True
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cache import (
    ARM_FAMILY,
    MIP_FAMILY,
    CachedLattice,
    CacheProbe,
    RuleCache,
)
from repro.core.calibration import (
    CalibrationReport,
    calibrate,
    calibrate_cache,
    calibrate_maintenance,
    default_probe_queries,
)
from repro.core.costs import CostWeights
from repro.core.focal import resolve_focal
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import MIPIndex, build_mip_index
from repro.core.operators import ExecutionTrace
from repro.core.optimizer import ColarmOptimizer, PlanChoice
from repro.core.parser import parse_query
from repro.core.plans import PlanKind, PlanResult, execute_plan, plan_from_name
from repro.core.query import LocalizedQuery
from repro.dataset.table import RelationalTable
from repro.itemsets.itemset import min_count_for
from repro.itemsets.rules import RuleBlock
from repro.rtree.flat import DEFAULT_MAX_ENTRIES

__all__ = ["QueryOutcome", "Colarm"]


@dataclass
class QueryOutcome:
    """Everything returned for one localized mining request."""

    rules: RuleBlock                # an immutable Sequence[Rule]
    plan: PlanKind
    chosen_by: str                  # "optimizer" or "forced"
    choice: PlanChoice | None       # present when the optimizer ran
    result: PlanResult
    cached: bool = False            # served from the materialized cache

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @property
    def elapsed(self) -> float:
        return self.result.elapsed

    @property
    def dq_size(self) -> int:
        return self.result.dq_size


class Colarm:
    """Build once, query many: the localized rule mining engine."""

    def __init__(
        self,
        table: RelationalTable,
        primary_support: float,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        weights: CostWeights | None = None,
        expand: bool = False,
    ):
        self.index: MIPIndex = build_mip_index(
            table, primary_support, max_entries=max_entries
        )
        self.expand = expand
        self.optimizer = ColarmOptimizer(self.index, weights)
        self.cache: RuleCache | None = None
        self.maintenance: MaintainedIndex | None = None
        self._recompact_horizon = 100

    @classmethod
    def from_index(
        cls,
        index: MIPIndex,
        weights: CostWeights | None = None,
        expand: bool = False,
    ) -> "Colarm":
        """Wrap an already-built (e.g. loaded-from-disk) MIP-index."""
        engine = cls.__new__(cls)
        engine.index = index
        engine.expand = expand
        engine.optimizer = ColarmOptimizer(index, weights)
        engine.cache = None
        engine.maintenance = None
        engine._recompact_horizon = 100
        return engine

    # -- introspection ------------------------------------------------------

    @property
    def table(self) -> RelationalTable:
        return self.index.table

    @property
    def schema(self):
        return self.index.table.schema

    @property
    def n_mips(self) -> int:
        return self.index.n_mips

    # -- offline: calibration ------------------------------------------------

    def calibrate(
        self,
        probe_queries: list[LocalizedQuery] | None = None,
        n_probes: int = 8,
        seed: int = 0,
    ) -> CalibrationReport:
        """Fit the cost model's unit weights from a probe workload."""
        if probe_queries is None:
            probe_queries = default_probe_queries(
                self.index, n_queries=n_probes, seed=seed
            )
        report = calibrate(self.index, probe_queries, expand=self.expand)
        self.optimizer.set_weights(report.weights)
        return report

    # -- offline: materialized rule caches ------------------------------------

    def enable_cache(
        self,
        budget_bytes: int = 64 << 20,
        landmark_hits: int = 4,
        calibrate: bool = True,
        cache: RuleCache | None = None,
    ) -> "Colarm":
        """Attach a budget-bound materialized-result cache (:mod:`repro.cache`).

        Enabling:

        1. builds a :class:`~repro.cache.RuleCache` bound to this index
           (or adopts ``cache``, e.g. one warm-loaded from disk via
           :func:`repro.core.persistence.load_cache`);
        2. fits the ``cache_probe``/``cache_load`` cost weights from the
           live cache (:func:`repro.core.calibration.calibrate_cache`) —
           run *after* :meth:`calibrate`, which refits from plan traces
           and would reset them to defaults;
        3. installs the cache in the optimizer, which from then on probes
           it per query and prices a CACHE variant for every plan the
           cached entry can serve.

        Idempotent (replaces any previous cache); returns ``self``.
        """
        if cache is not None:
            if cache.expand != self.expand:
                raise ValueError(
                    f"cache expand={cache.expand} does not match "
                    f"engine expand={self.expand}"
                )
            self.cache = cache
        else:
            self.cache = RuleCache(
                self.index,
                budget_bytes=budget_bytes,
                landmark_hits=landmark_hits,
                expand=self.expand,
            )
        if calibrate:
            self.optimizer.set_weights(
                calibrate_cache(self.cache, self.optimizer.weights)
            )
        self.optimizer.set_cache(self.cache)
        return self

    def disable_cache(self) -> "Colarm":
        """Detach the materialized cache (queries mine fresh again)."""
        self.cache = None
        self.optimizer.set_cache(None)
        return self

    # -- offline: delta-store maintenance --------------------------------------

    def enable_maintenance(
        self,
        max_delta_fraction: float = 0.1,
        calibrate: bool = True,
        horizon: int = 100,
    ) -> "Colarm":
        """Make the engine ingest-while-serving (:mod:`repro.core.maintenance`).

        Enabling:

        1. wraps the index in a :class:`MaintainedIndex` whose array-native
           delta store every plan answers over (live main+delta, vectorized
           corrections) — the index object and its lineage are untouched;
        2. fits the ``delta_probe``/``delta_merge`` cost weights from the
           live delta store (:func:`repro.core.calibration.
           calibrate_maintenance`) — run *after* :meth:`calibrate`, which
           refits from plan traces and would reset them to defaults;
        3. installs the delta source in the optimizer, which from then on
           profiles the combined live focal subset and prices the delta
           toll into every MIP plan.

        Rebuild-vs-accumulate is then a *priced* decision: each optimized
        query compares the accumulated delta toll over ``horizon`` queries
        against the measured fold cost and starts a **background**
        recompaction when folding wins (the size backstop
        ``max_delta_fraction`` also triggers one).  The fold is installed
        on the serving thread at the next query or :meth:`poll_maintenance`
        call, rebinding the optimizer/cache/pool to the fresh index.

        Idempotent (re-enabling keeps the current delta store); returns
        ``self``.
        """
        if self.maintenance is None:
            self.maintenance = MaintainedIndex.from_index(
                self.index,
                max_delta_fraction=max_delta_fraction,
                auto_rebuild=False,
            )
        else:
            self.maintenance.max_delta_fraction = max_delta_fraction
        self._recompact_horizon = horizon
        if calibrate:
            self.optimizer.set_weights(
                calibrate_maintenance(self.maintenance, self.optimizer.weights)
            )
        self.optimizer.set_delta(self.maintenance)
        return self

    def disable_maintenance(self) -> "Colarm":
        """Fold any outstanding delta and return to an immutable index."""
        if self.maintenance is None:
            return self
        self.maintenance.poll_recompaction(wait=True)
        self._install_recompaction()
        if (
            self.maintenance.n_delta_records
            or self.maintenance.n_main_live != self.maintenance.n_main_records
        ):
            self.maintenance.rebuild()
            self._rebind_index(self.maintenance.index)
        self.maintenance = None
        self.optimizer.set_delta(None)
        return self

    def append(self, records) -> int:
        """Ingest new records; returns the index generation after the append.

        Requires :meth:`enable_maintenance`.  The append is a vectorized
        delta-store insert (no index rebuild on the hot path); if the live
        delta outgrows ``max_delta_fraction`` of the main data a
        *background* recompaction starts, folding the delta into a fresh
        index off the serving path.
        """
        self._require_maintenance().append(records)
        self._maybe_recompact()
        return self.index.generation

    def delete(self, tids) -> int:
        """Tombstone records by tid; returns the generation after."""
        self._require_maintenance().delete(tids)
        self._maybe_recompact()
        return self.index.generation

    def poll_maintenance(self, wait: bool = False) -> bool:
        """Install a finished background fold; True if one was installed."""
        if self.maintenance is None:
            return False
        self.maintenance.poll_recompaction(wait=wait)
        if self.maintenance.index is self.index:
            return False
        self._rebind_index(self.maintenance.index)
        return True

    def _require_maintenance(self) -> MaintainedIndex:
        if self.maintenance is None:
            raise ValueError(
                "maintenance is not enabled; call enable_maintenance() first"
            )
        return self.maintenance

    def _build_cost_estimate(self) -> float:
        """Fold cost in seconds: measured when available, sized otherwise."""
        if self.maintenance.last_build_s > 0.0:
            return self.maintenance.last_build_s
        return max(0.05, 2e-6 * self.index.table.n_records)

    def _maybe_recompact(self) -> None:
        """The size backstop: fold when the delta outgrows its fraction."""
        m = self.maintenance
        if m.recompacting:
            self.poll_maintenance()
            return
        if m.n_pending > m.max_delta_fraction * max(m.n_main_records, 1):
            m.begin_recompaction()

    def _advise_recompact(self, choice: PlanChoice) -> None:
        """The priced trigger: fold when the accumulated delta toll over
        the recompaction horizon exceeds the fold cost — priced from what
        the request's ``choose()`` already computed."""
        m = self.maintenance
        if m.recompacting or m.n_pending == 0:
            return
        advice = self.optimizer.recompaction_advice(
            choice, self._build_cost_estimate(),
            horizon=self._recompact_horizon,
        )
        if advice.recommended:
            m.begin_recompaction()

    def _install_recompaction(self) -> None:
        """Adopt a replacement index if one is ready (a finished background
        fold, or a fold someone installed on the maintenance object
        directly — identity, not the poll result, is the trigger)."""
        self.poll_maintenance()

    def _rebind_index(self, index: MIPIndex) -> None:
        """Swap in a replacement index across every attached component."""
        self.index = index
        self.optimizer.rebind_index(index)
        if self.cache is not None:
            self.cache.rebind_index(index)

    # -- online: queries -------------------------------------------------------

    def parse(self, text: str) -> LocalizedQuery:
        """Parse a textual ``REPORT LOCALIZED ASSOCIATION RULES`` query."""
        return parse_query(text, self.schema).query

    def query(
        self,
        request: LocalizedQuery | str,
        plan: PlanKind | str | None = None,
        use_cache: bool = True,
        choice: PlanChoice | None = None,
    ) -> QueryOutcome:
        """Answer one localized mining request.

        With ``plan=None`` the COLARM optimizer picks the strategy; passing
        a :class:`PlanKind` (or its paper name, e.g. ``"SS-E-U-V"``) forces
        a specific plan.

        When a materialized cache is enabled (and ``use_cache``), the
        optimizer's choice also says whether to *serve* the plan from the
        cache — byte-identical to executing it fresh — and every fresh
        execution populates the cache for the next repeat.  A repeat whose
        rules entry was stamped by that priced path is decided from the
        stamp and served by the request's one cache probe
        (:meth:`probe_cache`); everything else is priced in full, with
        that probe handed to the optimizer.  Forced plans consult only
        the exact-key rules tier of their own plan family.
        ``use_cache=False`` bypasses both consulting and populating.

        A caller that already priced the request (the serving layer's
        admission control) can pass its :class:`PlanChoice` back via
        ``choice`` to skip the second ``optimizer.choose``.  The choice is
        reused only while it is still valid — same index generation, not
        a CACHE pick when this call does not consult the cache, and not
        the profile-less choice of an already served stamped hit — and
        silently re-chosen otherwise, so a stale handoff can never force
        a stale serve.

        The focal subset is resolved and projected once per request: the
        one the optimizer profiled (``choice.focus``) is what the plan
        executes on.  The projection ends with the request — executed,
        served from the cache or re-priced (:meth:`PlanChoice.release`) —
        so a choice or outcome a caller keeps pins the resolution only.
        """
        q = self.parse(request) if isinstance(request, str) else request
        if self.maintenance is not None:
            self._install_recompaction()
        consult = use_cache and self.cache is not None
        focus = None
        if plan is None:
            if choice is not None and (
                choice.generation != self.index.generation
                or (choice.cached and not consult)
                or choice.profile is None  # a stamp-priced hit, long served
            ):
                choice.release()
                choice = None
            if choice is None:
                probe = None
                if consult:
                    q.validate_against(self.schema)
                    served, probe = self.probe_cache(q)
                    if served is not None:
                        return served
                choice = self.optimizer.choose(
                    q, use_cache=consult, probe=probe
                )
            kind, chosen_by, focus = choice.kind, "optimizer", choice.focus
            if self.maintenance is not None:
                self._advise_recompact(choice)
            if choice.cached:
                served = self._serve_cached(q, kind, choice)
                if served is not None:
                    choice.release()
                    return served
        else:
            choice = None
            kind = plan_from_name(plan) if isinstance(plan, str) else plan
            chosen_by = "forced"
            if consult:
                served = self._serve_forced_cached(q, kind)
                if served is not None:
                    return served
        generation = self.cache.generation() if consult else None
        result = execute_plan(
            kind, self.index, q, expand=self.expand,
            delta=self.maintenance, focus=focus,
        )
        if choice is not None:
            choice.release()
        if consult:
            self._populate_cache(q, kind, result, generation, choice)
        return QueryOutcome(
            rules=result.rules,
            plan=kind,
            chosen_by=chosen_by,
            choice=choice,
            result=result,
        )

    def probe_cache(
        self, q: LocalizedQuery
    ) -> tuple[QueryOutcome | None, CacheProbe]:
        """The one cache probe of an optimizer-planned request.

        Returns the served outcome when the probe found a rules-tier
        entry at the current generation whose stamp says the optimizer
        would serve it (:meth:`ColarmOptimizer.probe_cache`) — one
        dictionary lookup under the cache's own lock,
        no profile, no plan pricing.  Otherwise the outcome is ``None``
        and the probe is for ``optimizer.choose(probe=...)``.  ``q`` must
        already be validated against the schema (:meth:`query` and the
        serving layer do).  Safe on any thread without the serving
        layer's engine lock.
        """
        start = time.perf_counter()
        probe, choice = self.optimizer.probe_cache(q)
        if choice is None:
            return None, probe
        return _cached_outcome(
            choice.kind, probe.rules, start, probe.pricing.dq_size, choice
        ), probe

    def _serve_cached(
        self, q: LocalizedQuery, kind: PlanKind, choice: PlanChoice
    ) -> QueryOutcome | None:
        """Serve the optimizer's CACHE pick; ``None`` falls back to fresh
        execution (the entry was evicted between probe and serve)."""
        probe = choice.cache_probe
        start = time.perf_counter()
        if probe.kind == "rules":
            rules = self.cache.get_rules(
                q, probe.family,
                pricing=self.optimizer.hit_pricing(choice, probe.family),
            )
        else:
            lattice = self.cache.get_lattice(q)
            if lattice is None:
                return None
            rules = lattice.extract(q.minconf)
            # The extracted set upgrades to a full rules hit on the next
            # exact-key repeat (lattice hits only price MIP plans).
            self.cache.put_rules(
                q, rules, family=MIP_FAMILY,
                generation=self.cache.generation(),
                pricing=self.optimizer.hit_pricing(choice, MIP_FAMILY),
            )
        if rules is None:
            return None
        return _cached_outcome(
            kind, rules, start, choice.profile.dq_size, choice
        )

    def _serve_forced_cached(
        self, q: LocalizedQuery, kind: PlanKind
    ) -> QueryOutcome | None:
        """Exact-key rules-tier lookup for a forced plan (its own family)."""
        q.validate_against(self.schema)
        start = time.perf_counter()
        rules = self.cache.get_rules(q, _family(kind))
        if rules is None:
            return None
        dq_size = resolve_focal(self.index, q, self.maintenance).dq_size
        return _cached_outcome(kind, rules, start, dq_size, None)

    def _populate_cache(
        self,
        q: LocalizedQuery,
        kind: PlanKind,
        result: PlanResult,
        generation: int | None,
        choice: PlanChoice | None,
    ) -> None:
        """Insert a fresh execution's products under its pre-execution
        generation snapshot (refused if the index mutated mid-flight).
        The rules entry is stamped with what ``choice`` priced, so its
        repeats are decided from the stamp; a forced plan's entry has no
        price and its first optimizer-planned repeat is priced in full."""
        family = _family(kind)
        self.cache.put_rules(
            q, result.rules, family=family, generation=generation,
            pricing=(
                self.optimizer.hit_pricing(choice, family)
                if choice is not None
                else None
            ),
        )
        if kind is not PlanKind.ARM and result.lattice_groups is not None:
            lattice = CachedLattice(
                groups=tuple(result.lattice_groups),
                dq_size=result.dq_size,
                extract_min_count=(
                    min_count_for(q.minsupp, result.dq_size)
                    if self.expand
                    else None
                ),
                schema=self.schema,
            )
            self.cache.put_lattice(q, lattice, generation=generation)

    def compare_plans(
        self, request: LocalizedQuery | str
    ) -> dict[PlanKind, PlanResult]:
        """Execute all six plans for one request (the evaluation harness)."""
        q = self.parse(request) if isinstance(request, str) else request
        return {
            kind: execute_plan(
                kind, self.index, q, expand=self.expand,
                delta=self.maintenance,
            )
            for kind in PlanKind
        }

    def choose_plan(self, request: LocalizedQuery | str) -> PlanChoice:
        """The optimizer's suggestion; nothing executes on its projection."""
        q = self.parse(request) if isinstance(request, str) else request
        choice = self.optimizer.choose(q)
        choice.release()
        return choice

    # -- convenience: global rules ------------------------------------------------

    def global_rules(self, minsupp: float, minconf: float) -> RuleBlock:
        """Classic *global* rules straight from the stored closed itemsets.

        The baseline analysts start from; comparing these against localized
        query results is how Simpson's-paradox effects are surfaced
        (Section 5.3 / :mod:`repro.analysis.simpson`).  The whole table is
        the focal subset no range selects from, so this is that localized
        query's answer.
        """
        everything = LocalizedQuery(
            range_selections={}, minsupp=minsupp, minconf=minconf
        )
        return execute_plan(PlanKind.SSVS, self.index, everything).rules


def _family(kind: PlanKind) -> str:
    """The rule-cache family a plan's rule set belongs to."""
    return ARM_FAMILY if kind is PlanKind.ARM else MIP_FAMILY


def _cached_outcome(
    kind: PlanKind,
    rules: RuleBlock,
    start: float,
    dq_size: int,
    choice: PlanChoice | None,
) -> QueryOutcome:
    """The outcome of a cache serve that began at ``start``; ``choice``
    is ``None`` for a forced plan."""
    result = PlanResult(
        kind=kind,
        rules=rules,
        trace=ExecutionTrace(),
        elapsed=time.perf_counter() - start,
        dq_size=dq_size,
    )
    return QueryOutcome(
        rules=rules,
        plan=kind,
        chosen_by="forced" if choice is None else "optimizer",
        choice=choice,
        result=result,
        cached=True,
    )
