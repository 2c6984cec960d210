"""Cost model: profiles match measured cardinalities; formula structure."""

import pytest

from repro.core.costs import CostModel, CostWeights, DEFAULT_WEIGHTS, QueryProfile
from repro.core.focal import resolve_focal
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.operators import make_context, op_eliminate, op_search, \
    op_supported_search
from repro.core.optimizer import ColarmOptimizer
from repro.core.plans import PlanKind
from repro.core.query import LocalizedQuery
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def setup():
    table = make_random_table(seed=12, n_records=100,
                              cardinalities=(4, 3, 3, 2, 3))
    index = build_mip_index(table, primary_support=0.05)
    return table, index


QUERIES = [
    LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
    LocalizedQuery({0: frozenset({0, 2}), 1: frozenset({0, 1})}, 0.4, 0.7),
    LocalizedQuery({2: frozenset({1, 2})}, 0.25, 0.8,
                   item_attributes=frozenset({0, 1, 3})),
]


def profile_for(index, query):
    profile, _focus = ColarmOptimizer(MaintainedIndex(index)).profile_for(query)
    return profile


@pytest.mark.parametrize("query", QUERIES)
def test_candidate_counts_exact(setup, query):
    """The vectorized profile reproduces the operators' true cardinalities."""
    _, index = setup
    profile = profile_for(index, query)
    ctx = make_context(index, query)
    candidates = op_search(ctx)
    assert profile.n_cands == len(candidates)
    ctx2 = make_context(index, query)
    supported = op_supported_search(ctx2)
    assert profile.n_cands_supported == len(supported)
    assert profile.n_contained == int(supported.contained.sum())


@pytest.mark.parametrize("query", QUERIES)
def test_qualified_estimate_upper_bounds_truth(setup, query):
    """The local-support upper bound never undercounts ELIMINATE output
    (for single-range-attribute queries it is exact)."""
    _, index = setup
    profile = profile_for(index, query)
    ctx = make_context(index, query)
    qualified = op_eliminate(ctx, op_search(ctx))
    assert profile.est_qualified >= len(qualified)
    if len(query.range_selections) == 1 and query.item_attributes is None:
        assert profile.est_qualified == len(qualified)


def test_loads_cover_all_plans(setup):
    _, index = setup
    profile = profile_for(index, QUERIES[0])
    model = CostModel(index.stats)
    for kind in PlanKind:
        loads = model.loads(kind, profile)
        assert loads["const"] >= 1.0
        assert all(v >= 0 for v in loads.values())
        assert set(loads) <= set(DEFAULT_WEIGHTS)
    # plan structure: ARM has no R-tree term; MIP plans have no SELECT term
    assert "search" not in model.loads(PlanKind.ARM, profile)
    assert "select" not in model.loads(PlanKind.SEV, profile)
    # selection push-up saves one pipeline stage
    sev = model.loads(PlanKind.SEV, profile)
    svs = model.loads(PlanKind.SVS, profile)
    assert svs["const"] == sev["const"] - 1


def test_sseuv_eliminate_term_smaller(setup):
    """Differential treatment: SS-E-U-V prices ELIMINATE on partial MIPs only."""
    _, index = setup
    profile = profile_for(index, QUERIES[0])
    model = CostModel(index.stats)
    ssev = model.loads(PlanKind.SSEV, profile)
    sseuv = model.loads(PlanKind.SSEUV, profile)
    assert sseuv["eliminate"] <= ssev["eliminate"]


def test_supported_search_term_not_larger(setup):
    _, index = setup
    profile = profile_for(index, QUERIES[0])
    model = CostModel(index.stats)
    plain, supported = model.search_loads(profile)
    assert supported <= plain + 1e-9


@pytest.mark.parametrize("query", QUERIES)
def test_search_loads_are_pass_words_plus_output_rows(setup, query):
    """Both searches pay the same bitmap pass — the MIP bitsets of each
    value in a partial attribute's hull and of its free set ORed, a word
    a unit, and the two bitmaps unpacked, 64 units a word — and one unit
    per returned row."""
    _, index = setup
    profile = profile_for(index, query)
    extents = [max(values) - min(values) + 1
               for values in query.range_selections.values()]
    words = -(-index.n_mips // 64) * (2 * 64 + sum(
        extent + 1 for a, extent in zip(query.range_selections, extents)
        if extent < index.cardinalities[a]
    ))
    ctx = make_context(index, query)
    plain = len(op_search(ctx))
    supported = len(op_supported_search(ctx))
    assert CostModel(index.stats).search_loads(profile) == (
        words + plain, words + supported
    )


def test_estimate_all_returns_every_plan(setup):
    _, index = setup
    profile = profile_for(index, QUERIES[0])
    model = CostModel(index.stats)
    estimates = model.estimate_all(profile)
    assert set(estimates) == set(PlanKind)
    assert all(v > 0 for v in estimates.values())


def test_weights_price():
    w = CostWeights({"a": 2.0, "b": 0.5})
    assert w.price({"a": 3.0, "b": 4.0, "unknown": 100.0}) == 8.0
