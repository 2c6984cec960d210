"""What one request computes, counted (the integer item space).

A planned miss — whichever plan the optimizer picks — builds one masked
kernel (the profile's, which a MIP plan's VERIFY counts on) and projects
nothing, unless the plan is ARM, which also projects each record
universe that has focal records once; it counts one sub-itemset table
whose row ANDs number at most the widest source's width (and names none
in closed mode unless the plan is ARM: a MIP plan gathers its cells
from the index's table), never calls
``make_itemset``, turns ids back into ``Item``
tuples only for the sources the returned block lists, and ORs the
region's MIP bitmaps once for the profile and SEARCH together.
"""

import numpy as np
import pytest

from repro import LocalizedQuery, PlanKind, kernels
from repro.core.mipindex import build_mip_index
from repro.core.plans import execute_plan
from repro.core.stats import IndexStatistics
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable
from repro.itemsets import itemset as itemset_module
from tests.core.test_focal import QUERY, make_engine, steer


class CountedItems(tuple):
    """The schema's id -> item table, counting the lookups made in it."""

    lookups = 0

    def __getitem__(self, index):
        CountedItems.lookups += 1
        return tuple.__getitem__(self, index)


class Counts:
    def __init__(self, monkeypatch, engine):
        self.projections = []
        self.kernels = self.masked = self.tables = self.row_ands = 0
        self.make_itemset = self.named = self.widest = self.region_passes = 0
        self.in_table = False
        main_matrix = engine.index.table.item_matrix()[0]
        project_rows = kernels.project_rows
        kernel_init = kernels.FocalKernel.__init__
        masked = kernels.FocalKernel.masked.__func__
        name_cells = kernels._name_cells
        count_levels = kernels.FocalKernel._count_levels
        bitwise_and = np.bitwise_and
        make_itemset = itemset_module.make_itemset
        region_bits = IndexStatistics.region_bits

        def counted_project_rows(matrix, mask_row):
            self.projections.append("main" if matrix is main_matrix else "delta")
            return project_rows(matrix, mask_row)

        def counted_init(kernel, matrix, dq_size):
            self.kernels += 1
            kernel_init(kernel, matrix, dq_size)

        def counted_masked(cls, n_items, universes):
            self.masked += 1
            return masked(cls, n_items, universes)

        def counted_name_cells(layout, n_items, known=None):
            self.named += known is None
            return name_cells(layout, n_items, known)

        def counted_count_levels(kernel, levels):
            self.tables += 1
            self.widest = max(self.widest, len(levels) + 1)
            self.in_table = True
            try:
                return count_levels(kernel, levels)
            finally:
                self.in_table = False

        def counted_and(*args, **kwargs):
            # The table's row ANDs (a kernel build ANDs too, outside it).
            self.row_ands += self.in_table
            return bitwise_and(*args, **kwargs)

        def counted_make_itemset(items):
            self.make_itemset += 1
            return make_itemset(items)

        def counted_region_bits(stats, selections):
            self.region_passes += 1
            return region_bits(stats, selections)

        monkeypatch.setattr(kernels, "project_rows", counted_project_rows)
        monkeypatch.setattr(kernels.FocalKernel, "__init__", counted_init)
        monkeypatch.setattr(
            kernels.FocalKernel, "masked", classmethod(counted_masked)
        )
        monkeypatch.setattr(kernels, "_name_cells", counted_name_cells)
        monkeypatch.setattr(
            kernels.FocalKernel, "_count_levels", counted_count_levels
        )
        monkeypatch.setattr(np, "bitwise_and", counted_and)
        monkeypatch.setattr(itemset_module, "make_itemset", counted_make_itemset)
        monkeypatch.setattr(IndexStatistics, "region_bits", counted_region_bits)
        schema = engine.schema
        monkeypatch.setattr(
            schema, "_items_by_id", CountedItems(schema.items_by_id)
        )
        CountedItems.lookups = 0


@pytest.mark.parametrize("expand", [False, True], ids=["closed", "expanded"])
@pytest.mark.parametrize("mutate", [False, True], ids=["main", "main+delta"])
@pytest.mark.parametrize("kind", list(PlanKind), ids=lambda k: k.value)
def test_planned_miss_counts_one_table_in_the_id_space(
    monkeypatch, kind, mutate, expand
):
    engine = make_engine(mutate, expand=expand)
    steer(monkeypatch, kind)
    counts = Counts(monkeypatch, engine)
    outcome = engine.query(QUERY)
    assert outcome.plan is kind and outcome.chosen_by == "optimizer"
    assert len(outcome.rules)
    # One masked kernel; ARM alone adds one projection per record
    # universe with focal records (and its kernel), a MIP plan none.
    arm = kind is PlanKind.ARM
    assert counts.masked == 1
    assert counts.projections == (
        (["main", "delta"] if mutate else ["main"]) if arm else []
    )
    assert counts.kernels == 1 + arm
    # One sub-itemset table; a row AND per level above the items.
    assert counts.tables == 1
    assert counts.named == (kind is PlanKind.ARM or expand)
    assert 0 < counts.row_ands <= counts.widest - 1
    assert counts.make_itemset == 0
    # Item tuples exist for the sources the block lists, and no others.
    assert CountedItems.lookups == sum(map(len, outcome.rules.sources))
    # The profile's cardinality pass and SEARCH share one region pass; on
    # a profile-memo hit SEARCH makes it (ARM does not search).
    assert counts.region_passes == 1
    counts.region_passes = 0
    engine.query(QUERY)
    assert counts.region_passes == (kind is not PlanKind.ARM)


def test_a_source_wider_than_any_lattice_slab_rides_the_same_table():
    """No width has a second path: one 17-item closure (every record the
    same) yields all ``2**17 - 2`` splits through the one table."""
    n_attrs = 17
    schema = Schema(tuple(
        Attribute(f"a{i}", ("x", "y")) for i in range(n_attrs)
    ))
    table = RelationalTable(schema, np.zeros((12, n_attrs), dtype=np.int32))
    index = build_mip_index(table, 0.5)
    query = LocalizedQuery({0: frozenset({0})}, 0.5, 1.0)
    for kind in (PlanKind.SSVS, PlanKind.ARM):
        rules = execute_plan(kind, index, query).rules
        assert len(rules) == (1 << n_attrs) - 2
        assert len(rules.sources) == 1 and len(rules.sources[0]) == n_attrs
        assert set(rules.support_count.tolist()) == {12}
