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

from repro.cache import ARM_FAMILY, MIP_FAMILY, CachedLattice, RuleCache
from repro.core.calibration import (
    CalibrationReport,
    calibrate,
    default_probe_queries,
)
from repro.core.costs import CostWeights
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

__all__ = ["QueryOutcome", "Colarm", "rule_family"]

#: The plan a cache serve is named after, by the family of the entry: the
#: MIP plans' answers are identical, and SS-VS is the one the optimizer
#: prefers among them on a tie.
_SERVED_KIND: dict[str, PlanKind] = {
    MIP_FAMILY: PlanKind.SSVS,
    ARM_FAMILY: PlanKind.ARM,
}


@dataclass
class QueryOutcome:
    """Everything returned for one localized mining request."""

    rules: RuleBlock                # an immutable Sequence[Rule]
    plan: PlanKind
    chosen_by: str                  # "optimizer" or "forced"
    choice: PlanChoice | None       # present when the optimizer priced it
    result: PlanResult
    cached: bool = False            # served from the materialized cache

    @classmethod
    def unpriced(
        cls, rules: RuleBlock, plan: PlanKind, *, forced: bool,
        elapsed: float, dq_size: int, cached: bool,
    ) -> "QueryOutcome":
        """An answer this engine did not price: a cache hit's, or one a
        cluster worker planned and executed.  No choice, an empty trace."""
        return cls(
            rules=rules,
            plan=plan,
            chosen_by="forced" if forced else "optimizer",
            choice=None,
            result=PlanResult(kind=plan, rules=rules, trace=ExecutionTrace(),
                              elapsed=elapsed, dq_size=dq_size),
            cached=cached,
        )

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
    """Build once, query many: the localized rule mining engine.

    Every engine owns one delta store (:attr:`maintenance`, a
    :class:`MaintainedIndex`), the only holder of the live index:
    :attr:`index` reads through it, and so do the optimizer and the
    cache, for the index, its generation and its statistics.  A fold
    the store installs is therefore seen everywhere at once; the engine
    only empties its cache.
    """

    def __init__(
        self,
        table: RelationalTable,
        primary_support: float,
        *,
        weights: CostWeights | None = None,
        expand: bool = False,
    ):
        self._wrap(build_mip_index(table, primary_support), weights, expand)

    @classmethod
    def from_index(
        cls,
        index: MIPIndex,
        weights: CostWeights | None = None,
        expand: bool = False,
    ) -> "Colarm":
        """Wrap an already-built (e.g. loaded-from-disk) MIP-index."""
        engine = cls.__new__(cls)
        engine._wrap(index, weights, expand)
        return engine

    def _wrap(
        self, index: MIPIndex, weights: CostWeights | None, expand: bool
    ) -> None:
        """The one constructor body: the delta store over ``index``, and
        the optimizer reading through it."""
        self.maintenance = MaintainedIndex(index)
        self.expand = expand
        self.optimizer = ColarmOptimizer(self.maintenance, weights)
        self.cache: RuleCache | None = None

    # -- introspection ------------------------------------------------------

    @property
    def index(self) -> MIPIndex:
        """The live index, as the delta store last installed it."""
        return self.maintenance.index

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

    def enable_cache(self, budget_bytes: int = 64 << 20) -> "Colarm":
        """Attach a budget-bound materialized-result cache (:mod:`repro.cache`).

        Builds an empty :class:`~repro.cache.RuleCache` over the delta
        store.  From then on every request is first offered to the cache
        (:meth:`serve_cached`) and every fresh execution populates it.

        Idempotent (replaces any previous cache); returns ``self``.
        """
        self.cache = RuleCache(
            self.maintenance, budget_bytes=budget_bytes, expand=self.expand
        )
        return self

    def disable_cache(self) -> "Colarm":
        """Detach the materialized cache (queries mine fresh again)."""
        self.cache = None
        return self

    # -- ingest while serving ------------------------------------------------

    def enable_maintenance(self, max_delta_fraction: float = 0.1) -> "Colarm":
        """Set the delta store's fold bound; returns ``self``.

        When the un-folded mutations outgrow ``max_delta_fraction`` of
        the main data (:attr:`MaintainedIndex.fold_due`), :meth:`append`
        / :meth:`delete` start a **background** fold, installed on the
        serving thread at the next query or :meth:`poll_maintenance`.
        """
        self.maintenance.max_delta_fraction = max_delta_fraction
        return self

    def append(self, records) -> int:
        """Ingest new records; returns the index generation after the append.

        The append is a vectorized delta-store insert (no index rebuild
        on the hot path); once the fold is due
        (:attr:`MaintainedIndex.fold_due`) a *background* recompaction
        starts, folding the delta into a fresh index off the serving
        path.
        """
        self.maintenance.append(records)
        self._maybe_recompact()
        return self.index.generation

    def delete(self, tids) -> int:
        """Tombstone records by tid; returns the generation after."""
        self.maintenance.delete(tids)
        self._maybe_recompact()
        return self.index.generation

    def poll_maintenance(self) -> bool:
        """Install a finished background fold; True if one was installed."""
        return self._installed(self.maintenance.poll_recompaction())

    def fold(self) -> bool:
        """Fold everything pending into a fresh index now, waiting out any
        fold in flight, and install it; True if the index changed."""
        return self._installed(self.maintenance.recompact())

    def _installed(self, generation: int | None) -> bool:
        """After an install (``generation`` is not None) empty the cache:
        every entry was stamped against the replaced index."""
        if generation is None:
            return False
        if self.cache is not None:
            self.cache.invalidate()
        return True

    def _maybe_recompact(self) -> None:
        """Install a finished fold, or start one when it is due."""
        m = self.maintenance
        if m.recompacting:
            self.poll_maintenance()
        elif m.fold_due:
            m.begin_recompaction()

    # -- online: queries -------------------------------------------------------

    def parse(self, text: str) -> LocalizedQuery:
        """Parse a textual ``REPORT LOCALIZED ASSOCIATION RULES`` query."""
        return parse_query(text, self.schema).query

    def query(
        self,
        request: LocalizedQuery | str,
        plan: PlanKind | str | None = None,
        use_cache: bool = True,
    ) -> QueryOutcome:
        """Answer one localized mining request.

        With ``plan=None`` the COLARM optimizer picks the strategy; passing
        a :class:`PlanKind` (or its paper name, e.g. ``"SS-E-U-V"``) forces
        a specific plan.

        When a materialized cache is enabled (and ``use_cache``), the
        request is first offered to it (:meth:`serve_cached`): one probe,
        and whatever it finds is served — byte-identical to executing the
        plan fresh — with no pricing.  Only a request the cache cannot
        serve goes on to :meth:`serve_fresh`.  ``use_cache=False``
        bypasses both consulting and populating.
        """
        q = self.parse(request) if isinstance(request, str) else request
        kind = plan_from_name(plan) if isinstance(plan, str) else plan
        if use_cache and self.cache is not None:
            q.validate_against(self.schema)
            served = self.serve_cached(q, kind)
            if served is not None:
                return served
        return self.serve_fresh(q, kind, use_cache)

    def serve_fresh(
        self,
        q: LocalizedQuery,
        kind: PlanKind | None,
        use_cache: bool = True,
    ) -> QueryOutcome:
        """The miss half of :meth:`query`: plan and execute a request the
        cache did not serve, without probing it again.

        Installs a finished background fold first, so the request is
        planned and executed against the live index.  With ``kind=None``
        the optimizer prices the request (its one ``choose``) and the
        chosen plan executes on the focal subset that was profiled
        (``choice.focus``): the subset is resolved and masked once per
        request, and its item rows end with the request
        (:meth:`PlanChoice.release`), so an outcome a caller keeps pins
        the resolution only.  With a cache enabled and ``use_cache``, the
        fresh answer populates it for the next repeat.
        """
        self.poll_maintenance()
        choice = None
        focus = None
        if kind is None:
            choice = self.optimizer.choose(q)
            kind, focus = choice.kind, choice.focus
        populate = use_cache and self.cache is not None
        generation = self.cache.generation() if populate else None
        try:
            result = execute_plan(
                kind, self.index, q, expand=self.expand,
                delta=self.maintenance, focus=focus,
            )
        finally:
            if choice is not None:
                choice.release()
        if populate:
            self._populate_cache(q, kind, result, generation)
        return QueryOutcome(
            rules=result.rules,
            plan=kind,
            chosen_by="forced" if choice is None else "optimizer",
            choice=choice,
            result=result,
        )

    def serve_cached(
        self, q: LocalizedQuery, kind: PlanKind | None
    ) -> QueryOutcome | None:
        """Offer a request to the cache: its one probe, and the serve of
        what the probe found.

        An optimizer-planned request (``kind=None``) takes an exact-key
        rules entry — MIP family first, named SS-VS, then ARM — and,
        failing that, replays the focal region's lattice entry at
        ``q.minconf``; the replayed rules become a rules entry for the
        next repeat.  A forced plan takes its own family's rules entry
        only.  Nothing is priced.  ``None`` when the probe found nothing
        the request can use, or the entry was evicted before it was
        served: the request then goes to :meth:`serve_fresh`, which does
        not probe again.

        ``q`` must already be validated against the schema (:meth:`query`
        and the serving layer do).  Touches nothing but the cache, which
        has its own lock, so it is safe on any thread, not only the serving
        layer's engine thread.
        """
        start = time.perf_counter()
        cache = self.cache
        generation = cache.generation()
        probe = cache.probe(q)
        families = [
            family for family in probe.families
            if kind is None or family == rule_family(kind)
        ]
        if families:
            rules = cache.get_rules(q, families[0])
            served = _SERVED_KIND[families[0]] if kind is None else kind
        elif kind is None and probe.kind == "lattice":
            lattice = cache.get_lattice(q)
            if lattice is None:
                return None
            rules = lattice.extract(q.minconf)
            cache.put_rules(q, rules, lattice.dq_size, generation=generation)
            served = _SERVED_KIND[MIP_FAMILY]
        else:
            return None
        if rules is None:
            return None
        return QueryOutcome.unpriced(
            rules, served, forced=kind is not None,
            elapsed=time.perf_counter() - start, dq_size=probe.dq_size,
            cached=True,
        )

    def _populate_cache(
        self,
        q: LocalizedQuery,
        kind: PlanKind,
        result: PlanResult,
        generation: int | None,
    ) -> None:
        """Insert a fresh execution's products under its pre-execution
        generation snapshot (refused if the index mutated mid-flight)."""
        self.cache.put_rules(
            q, result.rules, result.dq_size,
            family=rule_family(kind), generation=generation,
        )
        if kind is not PlanKind.ARM and result.lattice_cells is not None:
            lattice = CachedLattice(
                cells=result.lattice_cells.narrowed(),
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
        """The optimizer's suggestion; nothing executes on its kernel."""
        q = self.parse(request) if isinstance(request, str) else request
        choice = self.optimizer.choose(q)
        choice.release()
        return choice

    # -- convenience: global rules ------------------------------------------------

    def global_rules(self, minsupp: float, minconf: float) -> RuleBlock:
        """Classic *global* rules straight from the stored closed itemsets.

        The baseline analysts start from; comparing these against localized
        query results is how Simpson's-paradox effects are surfaced
        (Section 5.3 / :mod:`repro.analysis.simpson`).  The live records
        (appends and deletes not yet folded included) are the focal
        subset no range selects from, so this is that localized query's
        closed-mode SS-VS answer, whatever the engine's ``expand``.
        """
        everything = LocalizedQuery(
            range_selections={}, minsupp=minsupp, minconf=minconf
        )
        return execute_plan(
            PlanKind.SSVS, self.index, everything, delta=self.maintenance
        ).rules


def rule_family(kind: PlanKind) -> str:
    """The rule-cache family a plan's rule set belongs to."""
    return ARM_FAMILY if kind is PlanKind.ARM else MIP_FAMILY
