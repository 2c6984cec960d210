"""The COLARM optimizer: choice validity, weight sensitivity, explain."""

from dataclasses import fields

import pytest

from repro.core.costs import CostWeights
from repro.core.engine import Colarm
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.optimizer import ColarmOptimizer, PlanChoice
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.errors import QueryError
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def setup():
    table = make_random_table(seed=21, n_records=120,
                              cardinalities=(4, 3, 3, 2, 3))
    index = build_mip_index(table, primary_support=0.05)
    return table, index


def test_choice_is_argmin(setup):
    _, index = setup
    optimizer = ColarmOptimizer(MaintainedIndex(index))
    query = LocalizedQuery({0: frozenset({1, 2})}, 0.3, 0.7)
    choice = optimizer.choose(query)
    assert choice.kind in PlanKind
    assert choice.estimates[choice.kind] == min(choice.estimates.values())
    assert set(choice.estimates) == set(PlanKind)


def test_explain_mentions_all_plans(setup):
    _, index = setup
    optimizer = ColarmOptimizer(MaintainedIndex(index))
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.7)
    text = optimizer.choose(query).explain()
    for kind in PlanKind:
        assert kind.value in text
    assert "chosen" in text


def test_weights_change_choice(setup):
    """Extreme weights force the optimizer's hand — the knob works."""
    _, index = setup
    query = LocalizedQuery({0: frozenset({1, 2})}, 0.3, 0.7)

    arm_free = CostWeights(
        {"nodes": 1e3, "touches": 1e3, "eliminate": 1e3, "verify": 1e3,
         "select": 0.0, "arm": 0.0, "const": 0.0}
    )
    optimizer = ColarmOptimizer(MaintainedIndex(index), arm_free)
    assert optimizer.choose(query).kind is PlanKind.ARM

    arm_terrible = CostWeights(
        {"nodes": 0.0, "touches": 0.0, "eliminate": 0.0, "verify": 0.0,
         "select": 1e3, "arm": 1e3, "const": 0.0}
    )
    optimizer.set_weights(arm_terrible)
    assert optimizer.choose(query).kind is not PlanKind.ARM


def test_empty_focal_subset_rejected(setup):
    table, index = setup
    # find a selection with no records, if any; otherwise synthesize
    query = LocalizedQuery(
        {0: frozenset({0}), 1: frozenset({0}), 2: frozenset({0}),
         3: frozenset({0}), 4: frozenset({0})},
        0.3, 0.7,
    )
    if table.tids_matching(query.range_selections):
        pytest.skip("dataset has a record matching the all-zero selection")
    optimizer = ColarmOptimizer(MaintainedIndex(index))
    with pytest.raises(QueryError):
        optimizer.choose(query)


def test_chosen_plan_executes(setup):
    _, index = setup
    optimizer = ColarmOptimizer(MaintainedIndex(index))
    query = LocalizedQuery({0: frozenset({1})}, 0.35, 0.7)
    choice = optimizer.choose(query)
    result = execute_plan(choice.kind, index, query)
    assert result.kind is choice.kind


def test_profile_for_validates(setup):
    _, index = setup
    optimizer = ColarmOptimizer(MaintainedIndex(index))
    with pytest.raises(QueryError):
        optimizer.profile_for(LocalizedQuery({99: frozenset({0})}, 0.3, 0.5))


def test_a_warm_cache_changes_no_price(setup):
    """A choice prices the plans of a fresh execution — a cache hit is
    served, never priced, so a warm cache changes no price and there is
    no other variant."""
    _, index = setup
    engine = Colarm.from_index(index).enable_cache()
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.6)

    fresh = engine.optimizer.choose(query)
    engine.query(query)
    warm = engine.optimizer.choose(query)
    assert warm.estimates == fresh.estimates and warm.kind is fresh.kind

    assert [f.name for f in fields(PlanChoice)] == [
        "kind", "estimates", "profile", "query", "focus"
    ]
    rows = warm.explain().splitlines()[1:]
    assert sorted(row.split()[0] for row in rows) == sorted(
        kind.value for kind in PlanKind
    )
    chosen = [row for row in rows if row.endswith("<== chosen")]
    assert len(chosen) == 1 and chosen[0].split()[0] == warm.kind.value
