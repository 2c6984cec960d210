"""Parameter-space exploration: exactness and monotonicity."""

import pytest

from repro.analysis.paramspace import explore_parameter_space
from repro.core.mipindex import build_mip_index
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.errors import QueryError
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def setup():
    table = make_random_table(seed=81, n_records=100,
                              cardinalities=(4, 3, 3, 2))
    index = build_mip_index(table, primary_support=0.05)
    base = LocalizedQuery({0: frozenset({1, 2})}, 0.5, 0.5)
    return index, base


MINSUPPS = (0.25, 0.4, 0.55)
MINCONFS = (0.5, 0.7, 0.9)


def test_grid_counts_match_plan_executions(setup):
    """Every grid cell must equal an actual plan execution's rule count."""
    index, base = setup
    grid = explore_parameter_space(index, base, MINSUPPS, MINCONFS)
    for minsupp in MINSUPPS:
        for minconf in MINCONFS:
            query = LocalizedQuery(
                base.range_selections, minsupp, minconf,
                item_attributes=base.item_attributes,
            )
            result = execute_plan(PlanKind.SEV, index, query)
            assert grid.count_at(minsupp, minconf) == result.n_rules, \
                (minsupp, minconf)


def test_counts_monotone(setup):
    index, base = setup
    grid = explore_parameter_space(index, base, MINSUPPS, MINCONFS)
    for i in range(len(MINSUPPS) - 1):
        for j in range(len(MINCONFS) - 1):
            assert grid.counts[i][j] >= grid.counts[i + 1][j]
            assert grid.counts[i][j] >= grid.counts[i][j + 1]


def test_count_at_unknown_cell(setup):
    index, base = setup
    grid = explore_parameter_space(index, base, MINSUPPS, MINCONFS)
    with pytest.raises(QueryError):
        grid.count_at(0.33, 0.5)


def test_knee_cells(setup):
    index, base = setup
    grid = explore_parameter_space(index, base, MINSUPPS, MINCONFS)
    knees = grid.knee_cells(max_rules=10)
    for minsupp, minconf, count in knees:
        assert count <= 10
        assert grid.count_at(minsupp, minconf) == count


def test_rejects_below_coverage_floor(setup):
    index, base = setup
    with pytest.raises(QueryError, match="coverage"):
        explore_parameter_space(index, base, (0.01,), (0.5,))


def test_rejects_empty_axes(setup):
    index, base = setup
    with pytest.raises(QueryError):
        explore_parameter_space(index, base, (), (0.5,))


def test_grid_cuts_at_the_plans_count_threshold(setup):
    """A cell whose ``minsupp * |D^Q|`` is an integer only in decimal:
    ``0.28 * 25`` is 7.000000000000001 in floating point, but the stated
    threshold needs count 7 — the same count as ``0.25 * 25`` — and the
    grid must cut where the plans do."""
    index, _ = setup
    query = LocalizedQuery({0: frozenset({1})}, 0.28, 0.5)
    result = execute_plan(PlanKind.SEV, index, query)
    assert result.dq_size == 25
    grid = explore_parameter_space(index, query, (0.25, 0.28), (0.5,))
    assert grid.count_at(0.28, 0.5) == result.n_rules == 42
    assert grid.count_at(0.25, 0.5) == 42
