"""ARM through the kernel path equals ARM from the definitions.

``op_arm`` mines SELECT's *vertical* focal subset (the rows of the
focal projection) and generates its rules through the focal-projected
subset-lattice kernel (the same tail VERIFY uses).  The brute-force
oracle (``tests/oracle.arm_rules``: focal rows scanned, closed or
frequent itemsets enumerated, every split checked) shares nothing with
the projection: same rules, same floats, same order, in closed and
expanded mode, over an immutable index and over main+delta, on the
scenario strategies of the plan-equivalence and maintenance property
suites.  (The ids say "scalar": the scalar ARM body they first compared
to left with ``rules_from_itemsets``; the floor file tracks them.)
"""

import numpy as np
from hypothesis import given, settings

from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.operators import make_context, op_arm, op_select
from repro.core.query import LocalizedQuery
from repro.dataset.table import RelationalTable
from tests import oracle
from tests.conftest import rows_of
from tests.property import test_maintenance_delta as delta_suite
from tests.property import test_plan_equivalence as plan_suite


def assert_arm_paths_agree(index, query, live, delta=None):
    for expand in (False, True):
        ctx = make_context(index, query, expand=expand, delta=delta)
        got = [tuple(rule) for rule in op_arm(ctx, op_select(ctx))]
        assert got == oracle.arm_rules(live, query, expand), expand


@settings(max_examples=25, deadline=None)
@given(plan_suite.scenarios())
def test_arm_kernel_equals_scalar(scenario):
    table, query = scenario
    if not table.tids_matching(query.range_selections):
        return
    assert_arm_paths_agree(
        build_mip_index(table, primary_support=0.05), query, rows_of(table)
    )


@settings(max_examples=20, deadline=None)
@given(delta_suite.scenarios())
def test_arm_kernel_equals_scalar_over_main_plus_delta(scenario):
    seed, n_base, ops, selections, minsupp, minconf = scenario
    rng = np.random.default_rng(seed)
    base = np.column_stack(
        [rng.integers(0, c, size=n_base) for c in delta_suite.CARDS]
    ).astype(np.int32)
    mx = MaintainedIndex(
        RelationalTable(delta_suite._schema(), base),
        primary_support=delta_suite.PRIMARY,
    )
    rows = [list(map(int, r)) for r in base]
    alive = [True] * n_base
    delta_suite._apply_ops(mx, rows, alive, ops)
    live = delta_suite._live_table(rows, alive)
    focal = np.all(
        [np.isin(live.data[:, a], list(vs)) for a, vs in selections.items()],
        axis=0,
    )
    if not focal.any():
        return
    assert_arm_paths_agree(
        mx.index, LocalizedQuery(selections, minsupp, minconf), rows_of(live),
        delta=mx,
    )
