"""ARM through the kernel path equals ARM through the scalar path.

``op_arm`` mines SELECT's *vertical* focal subset (the rows of the
focal projection) and generates its rules through the focal-projected
subset-lattice kernel (the same tail VERIFY uses).  The scalar path it
replaced — extract the focal records row by row, rebuild their item
tidsets, then a memoized big-int AND chain per support lookup feeding the
consequent-growth ``rules_from_itemsets`` — is kept here as the identity
oracle and shares nothing with the projection: same rules, same floats,
same order, in closed and expanded mode, over an immutable index and over
main+delta, on the scenario strategies of the plan-equivalence and
maintenance property suites.
"""

import numpy as np
from hypothesis import given, settings

from repro import tidset as ts
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.operators import make_context, op_arm, op_select
from repro.core.query import LocalizedQuery
from repro.dataset.table import RelationalTable
from repro.itemsets.charm import charm
from repro.itemsets.rules import rules_from_itemsets
from tests.property import test_maintenance_delta as delta_suite
from tests.property import test_plan_equivalence as plan_suite


def select_rows(ctx):
    """The row-wise SELECT ``op_select`` ran before the projection: copy
    the focal records out of the table, live delta records stacked under
    them, into a table of their own."""
    rows = ctx.index.table.data[ts.to_list(ctx.dq), :]
    if ctx.delta is not None:
        buffer = ctx.delta.buffer
        in_focus = np.unpackbits(
            ctx.delta.focal_row.view(np.uint8), bitorder="little"
        )[: buffer.n_rows].astype(bool)
        rows = np.vstack([rows, buffer.data[: buffer.n_rows][in_focus]])
    return RelationalTable(ctx.index.table.schema, rows)


def arm_scalar(ctx):
    """The scalar ARM rule generation ``op_arm`` ran before the kernels."""
    sub = select_rows(ctx)
    item_tidsets = {
        item: mask
        for item, mask in sub.item_tidsets().items()
        if ctx.query.item_attributes is None
        or item.attribute in ctx.query.item_attributes
    }
    closed = charm(item_tidsets, sub.n_records, ctx.query.minsupp)
    full = ts.full(sub.n_records)
    cache = {cfi.items: cfi.support_count for cfi in closed}

    def local_count(items):
        if items in cache:
            return cache[items]
        mask = full
        for item in items:
            mask &= item_tidsets.get(item, 0)
            if not mask:
                break
        cache[items] = mask.bit_count()
        return cache[items]

    if not ctx.expand:
        itemsets = [cfi.items for cfi in closed]
    else:
        family = set()
        for cfi in closed:
            n = len(cfi.items)
            for mask in range(1, 1 << n):
                family.add(
                    tuple(cfi.items[i] for i in range(n) if mask >> i & 1)
                )
        itemsets = sorted(family)
    return rules_from_itemsets(
        itemsets, local_count, sub.n_records, ctx.query.minsupp,
        ctx.query.minconf,
    )


def assert_arm_paths_agree(index, query, delta=None):
    for expand in (False, True):
        ctx = make_context(index, query, expand=expand, delta=delta)
        assert op_arm(ctx, op_select(ctx)) == arm_scalar(ctx), expand


@settings(max_examples=25, deadline=None)
@given(plan_suite.scenarios())
def test_arm_kernel_equals_scalar(scenario):
    table, query = scenario
    if not table.tids_matching(query.range_selections):
        return
    assert_arm_paths_agree(build_mip_index(table, primary_support=0.05), query)


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
        auto_rebuild=False,
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
        mx.index, LocalizedQuery(selections, minsupp, minconf), delta=mx
    )
