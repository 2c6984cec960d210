"""The COLARM cost-based optimizer (Sections 3.1 and 5.1).

Given a localized mining request, the optimizer evaluates the six cost
formulae — a constant-time computation over the precomputed index
statistics — and suggests the plan with the lowest estimated cost.  The
paper reports >93% plan-selection accuracy and at most ~5% regret when the
choice is wrong; ``benchmarks/bench_optimizer_accuracy.py`` measures both
for this implementation.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.costs import CostModel, CostWeights, QueryProfile
from repro.core.focal import FocalSubset, resolve_focal
from repro.core.plans import PlanKind
from repro.core.query import LocalizedQuery
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.core.maintenance import MaintainedIndex

__all__ = [
    "EstimateResidual",
    "PlanChoice",
    "ColarmOptimizer",
]


#: Estimate-tie preference: supported before unsupported, fused before
#: split.  See :meth:`ColarmOptimizer.choose` for the dominance argument.
_TIE_PREFERENCE: dict[PlanKind, int] = {
    PlanKind.SSVS: 0,
    PlanKind.SSEUV: 1,
    PlanKind.SSEV: 2,
    PlanKind.SVS: 3,
    PlanKind.SEV: 4,
    PlanKind.ARM: 5,
}

#: Bound on the per-optimizer profile memo (see
#: :meth:`ColarmOptimizer.profile_for`): enough for any realistic hot
#: query set, small enough that stale-generation leftovers never matter.
_PROFILE_MEMO_MAX = 256


@dataclass(frozen=True)
class EstimateResidual:
    """One estimate-vs-actual observation for one plan of one query.

    The accuracy bench feeds measured plan times back through
    :meth:`ColarmOptimizer.record_measurement`; the accumulated residuals
    say *which* cost formula drifts (and by how much) when the optimizer
    mispicks — the per-plan diagnostic behind the ACC report.
    """

    kind: PlanKind
    estimated_s: float
    measured_s: float
    dq_size: int = 0
    arm_f1: int = 0          # measured local structure behind the ARM price
    arm_chain: int = 0       # (0 behind a MIP plan's F1-settled choice)

    @property
    def log_ratio(self) -> float:
        """log(estimated / measured); 0 = perfect, >0 = overestimate."""
        return math.log(max(self.estimated_s, 1e-12) /
                        max(self.measured_s, 1e-12))


@dataclass(frozen=True)
class PlanChoice:
    """The optimizer's suggestion plus everything behind it.

    Only a request the cache cannot serve is priced, so a choice is
    always of a fresh execution.  ``estimates[ARM]`` is a lower bound
    (:meth:`bound`) when ARM's floor already lost the pick.
    """

    kind: PlanKind
    estimates: dict[PlanKind, float]
    profile: QueryProfile
    #: The request priced (what :meth:`ColarmOptimizer.record_measurement`
    #: resolves again to finish a floor that came from the memo).
    query: LocalizedQuery = field(repr=False, compare=False)
    #: The focal subset the profile was built over — resolved *and
    #: masked* — for the execution to adopt (``execute_plan(...,
    #: focus=)``).  ``None`` when nothing was resolved: the profile came
    #: from the memo.  Whoever holds the choice calls :meth:`release`
    #: when the request ends.
    focus: FocalSubset | None = field(default=None, repr=False, compare=False)

    def release(self) -> None:
        """End the request's item rows; resolution and prices stay."""
        if self.focus is not None:
            self.focus.release()

    def bound(self, kind: PlanKind) -> str:
        """``"≥ "`` when ``kind``'s estimate is a floor (ARM's, when the
        floor settled the pick), else ``""``."""
        return "≥ " if kind is PlanKind.ARM and self.profile.arm_floor else ""

    def explain(self) -> str:
        """Human-readable ranking of the six plans."""
        lines = [
            f"focal subset: {self.profile.dq_size} records, "
            f"min_count={self.profile.min_count}"
        ]
        for kind, cost in sorted(self.estimates.items(), key=lambda kv: kv[1]):
            marker = " <== chosen" if kind is self.kind else ""
            lines.append(
                f"  {kind.value:<11} est {self.bound(kind)}{cost:.6f}s{marker}"
            )
        return "\n".join(lines)


class ColarmOptimizer:
    """Constant-time plan selection over the live index of a delta store.

    ``arm_risk_factor`` applies risk aversion to the ARM plan: its cost
    comes from a *model* of the focal subset's itemset lattice, while the
    MIP-plan costs come from near-exact index statistics.  ARM is chosen
    only when its estimate beats the best MIP plan by that factor.  The
    density-aware ARM model (measured F1/F2/F3 + quasi-clique moment fit)
    removed the old systematic underestimate, but the *miss costs* stay
    asymmetric: a wrong ARM pick re-mines the whole focal lattice (we
    measure up to ~1.7x regret), while a wrong MIP pick lands within a
    few percent of the oracle because the MIP plans share most of their
    work.  The default of 1.15 breaks near-ties toward MIP without
    overriding clear ARM wins (correct ARM picks carry >1.2x margins on
    the reference workload); set 1.0 to rank on raw estimates.
    """

    def __init__(
        self,
        store: "MaintainedIndex",
        weights: CostWeights | None = None,
        arm_risk_factor: float = 1.15,
    ):
        #: The engine's delta store: the live index, its generation and
        #: its statistics are read through it, and :meth:`profile_for`
        #: prices the live main+delta focal subset with the delta
        #: load-term inputs attached (none while the store is pristine).
        self.store = store
        self._cost_model = CostModel(store.index.stats, weights)
        self.arm_risk_factor = arm_risk_factor
        #: estimate-vs-actual observations fed back by the caller
        #: (:meth:`record_measurement`); unbounded only if the caller
        #: keeps feeding it — benches clear it per run.
        self.residuals: list[EstimateResidual] = []
        #: (range selections, Aitem, minsupp, index generation) ->
        #: QueryProfile LRU memo; see :meth:`profile_for`.
        self._profile_memo: "OrderedDict[tuple, QueryProfile]" = OrderedDict()

    @property
    def cost_model(self) -> CostModel:
        """The cost model over the live index's statistics: rebuilt, with
        the weights kept, once a fold has installed a new index."""
        stats = self.store.index.stats
        if self._cost_model.stats is not stats:
            self._cost_model = CostModel(stats, self._cost_model.weights)
        return self._cost_model

    @property
    def weights(self) -> CostWeights:
        return self._cost_model.weights

    def set_weights(self, weights: CostWeights) -> None:
        self._cost_model = CostModel(self.store.index.stats, weights)

    def profile_for(
        self,
        query: LocalizedQuery,
        estimates: dict[PlanKind, float] | None = None,
    ) -> tuple[QueryProfile, FocalSubset | None]:
        """Resolve the focal subset and build the query's cost profile.

        Returns the profile and the :class:`FocalSubset` it was built
        over, which :meth:`choose` hands on (``PlanChoice.focus``) so the
        execution does not resolve it again.

        Given ``estimates`` (a dict), the six plans' prices for the
        returned profile are written into it, and ARM's price is built in
        order of cost, stopping at the first bound that settles the pick
        (see :meth:`_settled`): its F1 floor
        (:meth:`QueryProfile.floor_from_query`, no item row read), then
        the floor raised by the greedy chain
        (:meth:`QueryProfile.with_arm_chain`), then the full model
        (:meth:`QueryProfile.with_arm_model`).  The MIP prices are
        computed once; each later stage re-prices ARM alone.  Without
        ``estimates`` the profile is always the full one.

        The profile is a pure function of the query's range selections
        (as spelled: the cardinality pass counts a full-domain selection
        as a range attribute), ``item_attributes`` and ``minsupp`` — not
        of ``minconf`` — and of the index state, so it is memoized on
        exactly those and the index generation under a small LRU bound:
        the density-aware ARM model *measures* the focal subset's
        frequent-item structure, and on repeated-query workloads
        re-measuring an unchanged subset per ``minconf`` variant would
        dwarf the plan it prices.  Any index mutation changes the
        generation key, so a stale profile is never reused.  A memo hit
        resolves nothing and returns no subset; the memo holds profiles
        only, never a subset or its item rows.  A memoized floor serves a
        hit only while it still settles the pick at the current weights;
        otherwise the subset is resolved again and the floor raised stage
        by stage.
        """
        index = self.store.index
        memo_key = (
            tuple(query.range_selections.items()),
            query.item_attributes,
            query.minsupp,
            index.generation,
        )
        cached = self._profile_memo.get(memo_key)
        if cached is not None and self._settled(cached, estimates):
            self._profile_memo.move_to_end(memo_key)
            return cached, None
        # Over a live delta this is the combined live |D^Q| every plan
        # answers over, so min_count and all cardinality estimates line
        # up with the maintained execution.
        focus = resolve_focal(index, query, self.store)
        if focus.dq_size == 0:
            raise QueryError("focal subset is empty; nothing to optimize")
        if cached is None:
            profile = QueryProfile.floor_from_query(query, focus, index.stats)
            settled = self._settled(profile, estimates)
        else:  # a memoized floor that no longer settles: raise it
            profile, settled = cached, False
        for stage in (QueryProfile.with_arm_chain, QueryProfile.with_arm_model):
            if settled:
                break
            profile = stage(profile, focus)
            settled = self._settled(profile, estimates)
        self._profile_memo[memo_key] = profile
        self._profile_memo.move_to_end(memo_key)
        if len(self._profile_memo) > _PROFILE_MEMO_MAX:
            self._profile_memo.popitem(last=False)
        return profile, focus

    def _risk(self, kind: PlanKind) -> float:
        return self.arm_risk_factor if kind is PlanKind.ARM else 1.0

    def _pick(self, estimates: dict[PlanKind, float]) -> PlanKind:
        _, _, best = min(
            (cost * self._risk(kind), _TIE_PREFERENCE[kind], kind)
            for kind, cost in estimates.items()
        )
        return best

    def _settled(
        self, profile: QueryProfile, estimates: dict[PlanKind, float] | None
    ) -> bool:
        """Whether ``profile`` serves as it is, its prices (when asked
        for) written into ``estimates``: all six into an empty dict, ARM's
        alone into a filled one — a later stage of the same profile moves
        only ARM's inputs.

        A full profile always does.  A floor does only for a caller that
        takes prices, and only when some MIP plan costs no more than the
        floor's ARM price times the risk factor: ``arm_load`` is
        non-decreasing in the floor's inputs and float rounding is
        monotone, so with non-negative weights and risk factor ARM's full
        price is at least the floor's, and ARM cannot be picked over that
        MIP plan (ties go to the MIP plans, :data:`_TIE_PREFERENCE`).
        With a negative weight nothing bounds the full price, and the
        model runs.
        """
        if estimates is None:
            return not profile.arm_floor
        if estimates:
            estimates[PlanKind.ARM] = self.cost_model.estimate(
                PlanKind.ARM, profile
            )
        else:
            estimates.update(self.cost_model.estimate_all(profile))
        if not profile.arm_floor:
            return True
        arm = estimates[PlanKind.ARM] * self.arm_risk_factor
        return (
            self.arm_risk_factor >= 0.0
            and all(w >= 0.0 for w in self.weights.weights.values())
            and any(cost <= arm for kind, cost in estimates.items()
                    if kind is not PlanKind.ARM)
        )

    def choose(self, query: LocalizedQuery) -> PlanChoice:
        """Suggest the cheapest plan for this request.

        Estimate ties break by :data:`_TIE_PREFERENCE`, not enum order:
        when the model cannot separate two plans, the supported variant
        dominates — SUPPORTED-SEARCH prunes only candidates whose global
        count already fails the focal floor, so it can never qualify
        fewer itemsets than plain SEARCH and its count-pruned traversal
        touches at most the same leaves.  (Exact ties are common: below
        the primary floor the supported filter's *estimated* pass
        fraction is 1, which collapses the S-* and SS-* load vectors.)

        ARM's estimate is a floor (``choice.profile.arm_floor``: F1 alone,
        or F1 and the greedy chain) when the floor already lost: the pick
        is the one full pricing makes.
        """
        estimates: dict[PlanKind, float] = {}
        profile, focus = self.profile_for(query, estimates)
        return PlanChoice(
            kind=self._pick(estimates),
            estimates=estimates,
            profile=profile,
            query=query,
            focus=focus,
        )

    # -- estimate-vs-actual feedback ----------------------------------------

    def record_measurement(
        self, choice: PlanChoice, kind: PlanKind, measured_s: float
    ) -> EstimateResidual:
        """Log one measured plan execution against its estimate — for ARM
        the full model's price, F1 and chain, never its floor's."""
        profile = choice.profile
        estimated_s = choice.estimates[kind]
        if kind is PlanKind.ARM and profile.arm_floor:
            # A floor is not an estimate (and an F1 floor has no chain):
            # finish the model over the request's subset, resolved again
            # (the choice may hold none, or a released one) and dropped
            # with the finished profile.
            focus = resolve_focal(self.store.index, choice.query, self.store)
            profile = profile.with_arm_model(focus)
            estimated_s = self.cost_model.estimate(kind, profile)
        arm = profile.arm_stats
        residual = EstimateResidual(
            kind=kind,
            estimated_s=estimated_s,
            measured_s=measured_s,
            dq_size=profile.dq_size,
            arm_f1=arm.f1 if arm is not None else 0,
            arm_chain=arm.chain_length if arm is not None else 0,
        )
        self.residuals.append(residual)
        return residual

    def residual_summary(self) -> dict[PlanKind, dict[str, float]]:
        """Per-plan bias/spread of log(estimated / measured)."""
        out: dict[PlanKind, dict[str, float]] = {}
        for kind in PlanKind:
            ratios = sorted(
                r.log_ratio for r in self.residuals if r.kind is kind
            )
            if not ratios:
                continue
            n = len(ratios)
            median = ratios[n // 2] if n % 2 else (
                (ratios[n // 2 - 1] + ratios[n // 2]) / 2.0
            )
            out[kind] = {
                "n": float(n),
                "median_log_ratio": median,
                "mean_abs_log_ratio": sum(abs(r) for r in ratios) / n,
            }
        return out
