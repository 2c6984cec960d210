"""Property suite for delta-store maintenance.

Random interleavings of append / delete / query / recompact must be
byte-identical (expanded mode, where all plan families agree exactly) to a
from-scratch rebuild of the live data whenever the coverage guarantee
holds — across all six plans, and through the engine with the materialized
cache on and off.  Closed-mode output is checked against the brute-force
oracle (``tests/oracle.mip_rules``), which shares no code with the
kernel path.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.engine import Colarm
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable
from tests import oracle

CARDS = (3, 3, 2, 3)
PRIMARY = 0.05


def _schema() -> Schema:
    return Schema(tuple(
        Attribute(f"a{i}", tuple(f"v{v}" for v in range(card)))
        for i, card in enumerate(CARDS)
    ))


def rule_key(rules):
    return sorted(
        (r.antecedent, r.consequent, r.support_count,
         round(r.confidence, 12))
        for r in rules
    )


@st.composite
def scenarios(draw):
    """A base table, an op interleaving, and a query."""
    seed = draw(st.integers(0, 2**16))
    n_base = draw(st.integers(40, 70))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(1, 4),
                      st.integers(0, 2**16)),
            st.tuples(st.just("delete"), st.integers(1, 3),
                      st.integers(0, 2**16)),
            st.tuples(st.just("recompact"), st.booleans()),
        ),
        min_size=1, max_size=5,
    ))
    attr = draw(st.integers(0, len(CARDS) - 1))
    values = draw(st.sets(st.integers(0, CARDS[attr] - 1),
                          min_size=1, max_size=2))
    minsupp = draw(st.sampled_from([0.45, 0.55, 0.65]))
    minconf = draw(st.sampled_from([0.5, 0.7]))
    return seed, n_base, ops, {attr: frozenset(values)}, minsupp, minconf


def _apply_ops(mx, rows, alive, ops):
    """Drive the maintained index and a plain-python mirror in lockstep.

    ``rows``/``alive`` mirror the full tid space (main + every delta slot,
    dead or alive); a recompact collapses both to the live rows, matching
    the fold's main-live + delta-live ordering.
    """
    for op in ops:
        if op[0] == "append":
            _, n, op_seed = op
            rng = np.random.default_rng(op_seed)
            batch = [[int(rng.integers(0, c)) for c in CARDS]
                     for _ in range(n)]
            mx.append(batch)
            rows.extend(batch)
            alive.extend([True] * n)
        elif op[0] == "delete":
            _, n, op_seed = op
            rng = np.random.default_rng(op_seed)
            tids = sorted({int(rng.integers(0, len(rows)))
                           for _ in range(n)})
            mx.delete(tids)
            for tid in tids:
                alive[tid] = False
        else:
            _, background = op
            if background:
                mx.begin_recompaction()
                mx.poll_recompaction(wait=True)
            else:
                mx.recompact()
            rows[:] = [r for r, ok in zip(rows, alive) if ok]
            alive[:] = [True] * len(rows)


def oracle_rules(mx, rows, alive, query, expand):
    """The MIP family's answer over a maintained index, from the mirror
    ``_apply_ops`` keeps: ``rows``/``alive`` cover the whole tid space,
    the first ``mx.n_main_records`` of them being what the index stores."""
    stored = [tuple(r) for r in rows[:mx.n_main_records]]
    live = [tuple(r) for r, ok in zip(rows, alive) if ok]
    appended = [
        tuple(r) for r, ok in
        zip(rows[mx.n_main_records:], alive[mx.n_main_records:]) if ok
    ]
    assume(oracle.focal_rows(live, query))
    return oracle.mip_rules(
        stored, PRIMARY, live, len(oracle.focal_rows(appended, query)),
        query, expand,
    )


def _live_table(rows, alive):
    data = np.asarray(
        [r for r, ok in zip(rows, alive) if ok], dtype=np.int32
    ).reshape(-1, len(CARDS))
    return RelationalTable(_schema(), data)


#: Found by hypothesis (CHANGES.md, PR 14): the appended row supports
#: {a0=0, a1=1} but not that itemset's closure in the main index, so the
#: sub-itemset reaches min_count (4 main + 1 delta = 5) while the closure
#: (4 + 0) does not.  Expanded-mode qualification must keep such a closure
#: in play (``QueryContext.qualify_floor``).
DELTA_LIFTS_SUBSET_ONLY = (
    485, 50, [("append", 1, 1350)], {0: frozenset({0})}, 0.45, 0.5
)


@settings(max_examples=20, deadline=None)
@given(scenarios())
@example(DELTA_LIFTS_SUBSET_ONLY)
def test_interleavings_byte_identical_to_rebuild_all_plans(scenario):
    seed, n_base, ops, selections, minsupp, minconf = scenario
    rng = np.random.default_rng(seed)
    base = np.column_stack(
        [rng.integers(0, c, size=n_base) for c in CARDS]
    ).astype(np.int32)
    table = RelationalTable(_schema(), base)
    mx = MaintainedIndex(build_mip_index(table, primary_support=PRIMARY))
    rows = [list(map(int, r)) for r in base]
    alive = [True] * n_base
    _apply_ops(mx, rows, alive, ops)

    query = LocalizedQuery(selections, minsupp, minconf)
    live = _live_table(rows, alive)
    dq_combined = int(
        np.all([np.isin(live.data[:, a], list(vs))
                for a, vs in selections.items()], axis=0).sum()
    )
    assume(dq_combined > 0)
    assume(mx.coverage_guaranteed(query, dq_combined))

    fresh = build_mip_index(live, primary_support=PRIMARY)
    for plan in PlanKind:
        expected = execute_plan(plan, fresh, query, expand=True).rules
        got = execute_plan(
            plan, mx.index, query, expand=True, delta=mx
        ).rules
        assert rule_key(got) == rule_key(expected), plan

    # Closed mode: every plan on the kernel path against the brute-force
    # oracle — same rules, same floats, same order.
    want = {
        "mip": oracle_rules(mx, rows, alive, query, expand=False),
        "arm": oracle.arm_rules(
            [tuple(r) for r, ok in zip(rows, alive) if ok], query, False
        ),
    }
    for plan in PlanKind:
        got = execute_plan(plan, mx.index, query, delta=mx).rules
        family = "arm" if plan is PlanKind.ARM else "mip"
        assert [tuple(r) for r in got] == want[family], plan


@settings(max_examples=12, deadline=None)
@given(scenarios())
@example(DELTA_LIFTS_SUBSET_ONLY)
def test_engine_with_cache_matches_rebuild(scenario):
    """The optimizer-driven engine path — cache on and off — agrees with
    a from-scratch rebuild after every interleaving (expanded mode)."""
    seed, n_base, ops, selections, minsupp, minconf = scenario
    rng = np.random.default_rng(seed)
    base = np.column_stack(
        [rng.integers(0, c, size=n_base) for c in CARDS]
    ).astype(np.int32)
    table = RelationalTable(_schema(), base)
    engine = Colarm(table, primary_support=PRIMARY, expand=True)
    engine.enable_cache()
    engine.enable_maintenance(calibrate=False)
    mx = engine.maintenance
    rows = [list(map(int, r)) for r in base]
    alive = [True] * n_base
    query = LocalizedQuery(selections, minsupp, minconf)

    for op in ops:
        _apply_ops(mx, rows, alive, [op])
        engine.poll_maintenance()  # adopt any fold immediately
        live = _live_table(rows, alive)
        dq_combined = int(
            np.all([np.isin(live.data[:, a], list(vs))
                    for a, vs in selections.items()], axis=0).sum()
        )
        if dq_combined == 0 or not mx.coverage_guaranteed(
            query, dq_combined
        ):
            continue
        fresh = build_mip_index(live, primary_support=PRIMARY)
        expected = rule_key(
            execute_plan(PlanKind.SEV, fresh, query, expand=True).rules
        )
        cold = engine.query(query, use_cache=False)
        assert rule_key(cold.rules) == expected, op
        primed = engine.query(query, use_cache=True)   # populates
        assert rule_key(primed.rules) == expected, op
        served = engine.query(query, use_cache=True)   # may serve cached
        assert rule_key(served.rules) == expected, op
