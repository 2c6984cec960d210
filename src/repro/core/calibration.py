"""Calibration of the cost model's unit weights.

The cost formulae express each plan's work in abstract load units (bitmap
words, tidset-word operations, rule-generation fan-out, ...).  What one
unit costs in wall-clock seconds depends on the machine and the Python
runtime, so at index-build time a small *probe workload* is executed and
the per-feature weights are fitted from (load, measured time) pairs — per
feature the median ratio over the rows that exercise it alone, with
non-negative least squares as the fallback.

Each probe runs SS-VS (also the MIP plan the optimizer picks most) and
ARM whole, plus S-E-V's SEARCH -> ELIMINATE leg: every code path the fit
reads, once.  S-E-V's VERIFY would count and extract over the very
qualified set SUPPORTED-VERIFY does (unsupported candidates never
qualify), so ``verify`` / ``rulegen`` are fitted from SS-VS alone; the
leg stays because ELIMINATE qualifies *all* overlapping candidates, which
SS-VS never does.  The other three plans only recombine these operators.

The probe time excludes the shared FOCUS step (identical across plans, so
irrelevant to plan *selection*).

The probes run on the main index alone.  A delta store needs no fit of
its own: its block of words is priced as more words of the ``eliminate``,
``verify`` and ``select`` loads (:mod:`repro.core.costs`), which time the
same kernels over it.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core import plans
from repro.core.costs import CostModel, CostWeights, DEFAULT_WEIGHTS, QueryProfile
from repro.core.focal import resolve_focal
from repro.core.mipindex import MIPIndex
from repro.core.operators import ExecutionTrace
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.errors import QueryError

__all__ = [
    "CalibrationReport",
    "calibrate",
    "default_probe_queries",
]


@dataclass(frozen=True)
class CalibrationReport:
    """Fitted weights plus fit diagnostics."""

    weights: CostWeights
    #: timed probe legs, three per non-empty probe: S-E-V's SEARCH ->
    #: ELIMINATE leg, SS-VS and ARM.
    n_runs: int
    residual: float  # RMS of (predicted - measured) over the probe runs
    #: rows per feature in which that feature was the only active one —
    #: the sample size behind each robust median fit.
    solo_rows: dict[str, int] = field(default_factory=dict)
    #: dispersion of the solo ARM time/load ratios, (p75 - p25) / median:
    #: how much the measured per-unit ARM cost still varies across probe
    #: subsets after the density-aware load model has explained what it
    #: can.  Large values mean the fitted ``arm`` weight is a compromise
    #: and the optimizer's ARM estimates carry that variance.
    arm_spread: float = 0.0


def default_probe_queries(
    index: MIPIndex,
    n_queries: int = 8,
    seed: int = 0,
    minsupp_range: tuple[float, float] = (0.3, 0.8),
    minconf: float = 0.7,
) -> list[LocalizedQuery]:
    """A spread of random focal subsets for probing.

    Picks random range attributes and contiguous value runs of varying
    width so the probes cover small and large focal subsets, which keeps
    the least-squares system well conditioned.
    """
    from repro import tidset as ts

    rng = np.random.default_rng(seed)
    schema = index.table.schema
    candidates: list[tuple[int, dict[int, frozenset[int]]]] = []
    for _ in range(max(n_queries * 8, 32)):
        n_range = int(rng.integers(1, max(2, schema.n_attributes // 3) + 1))
        attrs = rng.choice(schema.n_attributes, size=n_range, replace=False)
        selections: dict[int, frozenset[int]] = {}
        for ai in attrs:
            card = schema.attributes[int(ai)].cardinality
            width = int(rng.integers(1, card + 1))
            start = int(rng.integers(0, card - width + 1))
            selections[int(ai)] = frozenset(range(start, start + width))
        dq_size = ts.count(index.table.tids_matching(selections))
        if dq_size > 0:
            candidates.append((dq_size, selections))
    if not candidates:
        raise QueryError("could not generate any non-empty probe query")
    # Spread the probes across focal-subset sizes so every plan's expensive
    # regime (ARM at small/low-support subsets, record-level checks at
    # large ones) is represented in the fit.
    candidates.sort(key=lambda c: c[0])
    step = max(1, len(candidates) // n_queries)
    picked = candidates[::step][:n_queries] or candidates[:n_queries]
    lo, hi = minsupp_range
    return [
        LocalizedQuery(
            range_selections=selections,
            minsupp=lo + (hi - lo) * (i % 3) / 2.0,
            minconf=minconf,
        )
        for i, (_size, selections) in enumerate(picked)
    ]


#: The plans each probe times: S-E-V up to ELIMINATE (:func:`_probe_leg`),
#: SS-VS and ARM whole.  Together they invoke every operator kind of
#: :data:`_OPERATOR_FEATURES` plus SUPPORTED-VERIFY, each code path once.
_PROBE_PLANS = (PlanKind.SEV, PlanKind.SSVS, PlanKind.ARM)

#: Which cost feature each timed operator exercises alone.  SUPPORTED-
#: VERIFY exercises three; :func:`calibrate` splits it into one solo row
#: per feature from its trace's ``mining_s`` / ``kernel_s`` /
#: ``masking_s`` details (embedded qualification -> ``eliminate``,
#: support counting -> ``verify``, extraction -> ``rulegen``).
_OPERATOR_FEATURES: dict[str, str] = {
    "SEARCH": "search",
    "SUPPORTED-SEARCH": "search",
    "ELIMINATE": "eliminate",
    "SELECT": "select",
    "ARM": "arm",
}


def calibrate(
    index: MIPIndex,
    probe_queries: list[LocalizedQuery] | None = None,
    expand: bool = False,
) -> CalibrationReport:
    """Fit per-feature unit weights from measured probe executions.

    Every *operator* invocation in the probe runs contributes one row —
    its load estimate against its measured elapsed time — so each weight
    is identified by the operator that actually exercises it, instead of
    being confounded inside per-plan totals.
    """
    if probe_queries is None:
        probe_queries = default_probe_queries(index)
    base_model = CostModel(index.stats)

    feature_names = [n for n in sorted(DEFAULT_WEIGHTS) if n != "const"]
    column = {name: j for j, name in enumerate(feature_names)}
    rows: list[list[float]] = []
    times: list[float] = []
    n_runs = 0
    # Probe timings feed the weight fit directly; a collection mid-probe
    # would be priced into the weights, so every timed leg runs with the
    # collector paused.  The heap is never collected here: a full
    # collection walks the whole index (10-20 ms per engine, more than the
    # legs it would precede), and what a leg leaves behind is reclaimed by
    # the collector's own schedule between the pauses.
    for query in probe_queries:
        focus = resolve_focal(index, query)
        if focus.dq_size == 0:
            continue
        profile = QueryProfile.from_query(query, focus, index.stats)
        # Each timed execution resolves (and builds its kernel) for
        # itself: a kernel shared across the probe plans would be timed
        # once and bias the ``verify`` fit.
        focus.release()
        for kind in _PROBE_PLANS:
            with _collector_paused():
                trace = _probe_leg(kind, index, query, expand)
            n_runs += 1
            supported = kind.name.startswith("SS")
            per_feature = {
                "search": base_model.search_loads(profile)[supported],
                "eliminate": base_model.eliminate_load(profile, kind),
                "verify": base_model.verify_load(profile),
                "rulegen": base_model.rulegen_load(profile),
                "select": base_model.select_load(profile),
                "arm": base_model.arm_load(profile),
            }

            def add_solo_row(feature: str, elapsed: float) -> None:
                row = [0.0] * len(feature_names)
                row[column[feature]] = per_feature[feature]
                rows.append(row)
                times.append(max(elapsed, 0.0))

            for op in trace.operators:
                if op.name == "SUPPORTED-VERIFY":
                    # The trace's internal split yields one *solo* row per
                    # feature instead of leaving the least-squares fit to
                    # disentangle them from one joint row.
                    counting_s = (
                        op.detail.get("kernel_s", 0.0)
                        + op.detail.get("masking_s", 0.0)
                    )
                    mining_s = op.detail.get("mining_s", 0.0)
                    add_solo_row("eliminate", mining_s)
                    add_solo_row("verify", counting_s)
                    add_solo_row(
                        "rulegen", op.elapsed - mining_s - counting_s
                    )
                elif op.name in _OPERATOR_FEATURES:
                    # FOCUS is constant overhead and not fitted.
                    add_solo_row(_OPERATOR_FEATURES[op.name], op.elapsed)

    if not rows:
        raise QueryError("no probe runs executed; cannot calibrate")
    matrix = np.asarray(rows, dtype=float)
    target = np.asarray(times, dtype=float)

    weights = dict(DEFAULT_WEIGHTS)
    # The joint least-squares fit backs only features without solo rows;
    # it (and scipy's import) is skipped when every feature has them.
    fitted: np.ndarray | None = None
    solo_rows: dict[str, int] = {}
    arm_spread = 0.0
    for j, name in enumerate(feature_names):
        # Robust per-feature fit: the median of elapsed/load over the rows
        # where this feature is the only active one.  A single degenerate
        # probe (e.g. a two-record focal subset whose rule fan-out
        # explodes) would otherwise dominate the least-squares fit and
        # poison every other weight.
        solo = [
            times[i] / matrix[i, j]
            for i in range(len(times))
            if matrix[i, j] > 0
            and all(matrix[i, k] == 0 for k in range(matrix.shape[1]) if k != j)
        ]
        solo_rows[name] = len(solo)
        if solo:
            weights[name] = float(np.median(solo))
            if name == "arm" and len(solo) >= 2:
                p25, med, p75 = np.percentile(solo, (25, 50, 75))
                arm_spread = float((p75 - p25) / med) if med > 0 else 0.0
        elif matrix[:, j].max() > 0:
            if fitted is None:
                fitted = _nnls(matrix, target)
            if fitted[j] > 0:
                weights[name] = float(fitted[j])
    predicted = matrix @ np.asarray(
        [weights[name] for name in feature_names], dtype=float
    )
    residual = float(np.sqrt(np.mean((predicted - target) ** 2)))
    return CalibrationReport(
        weights=CostWeights(weights),
        n_runs=n_runs,
        residual=residual,
        solo_rows=solo_rows,
        arm_spread=arm_spread,
    )


def _probe_leg(
    kind: PlanKind, index: MIPIndex, query: LocalizedQuery, expand: bool
) -> ExecutionTrace:
    """Run one probe leg and return its trace; S-E-V stops after ELIMINATE.

    The S-E-V leg calls the operators by the names :mod:`repro.core.plans`
    binds, so whatever wraps a plan body's operators wraps the leg's too.
    """
    if kind is not PlanKind.SEV:
        return execute_plan(kind, index, query, expand=expand).trace
    ctx = plans.make_context(index, query, expand=expand)
    plans.op_eliminate(ctx, plans.op_search(ctx))
    return ctx.trace


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic collector, restoring the state found on entry."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _nnls(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Non-negative least squares, preferring scipy's solver."""
    try:
        from scipy.optimize import nnls

        solution, _ = nnls(matrix, target)
        return solution
    except ImportError:
        solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
        return np.clip(solution, 0.0, None)
