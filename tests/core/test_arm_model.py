"""The ARM cardinality model: F1/F2/F3 exactness, density-aware series,
chain bound, and the structural early returns — measured as a request
measures them, on the focal projection (``projected_arm_model``)."""

import numpy as np
import pytest

from repro import tidset as ts
from repro.core.costs import (
    ArmModelStats,
    _clique_equivalent_size,
    _real_comb,
)
from repro.core.query import LocalizedQuery
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable
from tests.conftest import make_random_table
from tests.core.reference_arm_model import projected_arm_model


def build_inputs(table, selections):
    dq = table.tids_matching(selections)
    return table, dq, ts.count(dq)


def _model_arm_counts(query, table, dq, dq_size, min_count):
    """The model over ``table``'s focal records ``dq``, projected the
    way a request projects them."""
    return projected_arm_model(table, query, min_count, dq)


def exact_f1(table, dq, min_count, item_attrs=None):
    out = 0
    for item, mask in table.item_tidsets().items():
        if item_attrs is not None and item.attribute not in item_attrs:
            continue
        if ts.count(mask & dq) >= min_count:
            out += 1
    return out


# -- early returns ------------------------------------------------------------


def test_zero_when_nothing_frequent():
    """f1 == 0: no locally frequent item, zero mining mass."""
    table = make_random_table(seed=131, n_records=50)
    query = LocalizedQuery({0: frozenset({0})}, 0.9, 0.5)
    table, dq, dq_size = build_inputs(table, query.range_selections)
    stats = _model_arm_counts(
        query, table, dq, dq_size, min_count=dq_size + 1
    )
    assert isinstance(stats, ArmModelStats)
    assert (stats.est_itemsets, stats.est_fanout) == (0.0, 0.0)
    assert stats.f1 == 0
    assert stats.chain_length == 0


def test_single_frequent_item():
    """f1 == 1: exactly one itemset, fan-out two."""
    attrs = (Attribute("a", ("p", "q")), Attribute("b", ("r", "s", "t")))
    rng = np.random.default_rng(1)
    data = np.column_stack([
        np.zeros(30, dtype=np.int32),           # a=p everywhere
        rng.integers(0, 3, size=30),            # b scattered
    ]).astype(np.int32)
    table = RelationalTable(Schema(attrs), data)
    query = LocalizedQuery({}, 0.9, 0.5)
    table, dq, dq_size = build_inputs(table, {})
    stats = _model_arm_counts(query, table, dq, dq_size, min_count=28)
    assert stats.f1 == 1
    assert stats.est_itemsets == pytest.approx(1.0)
    assert stats.est_fanout == pytest.approx(2.0)
    assert stats.chain_length == 1


# -- measured quantities ------------------------------------------------------


def test_f1_counted_exactly():
    table = make_random_table(seed=133, n_records=60)
    query = LocalizedQuery({0: frozenset({0, 1})}, 0.4, 0.5)
    table, dq, dq_size = build_inputs(table, query.range_selections)
    min_count = 20
    stats = _model_arm_counts(query, table, dq, dq_size, min_count)
    f1 = exact_f1(table, dq, min_count)
    assert stats.f1 == f1
    assert stats.est_itemsets >= f1  # F1 is always included
    assert stats.est_fanout >= 2.0 * f1


def test_f2_f3_counted_exactly_when_sample_covers_all_items():
    """Small tables fit inside both sample caps: pairs and triples exact."""
    table = make_random_table(seed=134, n_records=80)
    query = LocalizedQuery({0: frozenset({0, 1})}, 0.3, 0.5)
    table, dq, dq_size = build_inputs(table, query.range_selections)
    min_count = 12
    stats = _model_arm_counts(query, table, dq, dq_size, min_count)

    local = [
        mask & dq for mask in table.item_tidsets().values()
        if (mask & dq).bit_count() >= min_count
    ]
    exact_pairs = sum(
        1
        for i in range(len(local))
        for j in range(i + 1, len(local))
        if (local[i] & local[j]).bit_count() >= min_count
    )
    exact_triples = sum(
        1
        for i in range(len(local))
        for j in range(i + 1, len(local))
        for k in range(j + 1, len(local))
        if (local[i] & local[j] & local[k]).bit_count() >= min_count
    )
    assert stats.sample_size == stats.f1 == len(local)
    assert stats.f2_sampled == exact_pairs
    if stats.triangle_items == stats.f1:
        assert stats.f3_sampled == exact_triples
    # the estimate covers at least everything measured
    assert stats.est_itemsets >= stats.f1 + stats.f2_sampled + stats.f3_sampled


def test_respects_item_attributes():
    table = make_random_table(seed=135, n_records=60)
    base = {0: frozenset({0, 1})}
    restricted = LocalizedQuery(base, 0.4, 0.5,
                                item_attributes=frozenset({1}))
    unrestricted = LocalizedQuery(base, 0.4, 0.5)
    table, dq, dq_size = build_inputs(table, base)
    s_restricted = _model_arm_counts(restricted, table, dq,
                                     dq_size, 15)
    s_unrestricted = _model_arm_counts(unrestricted, table, dq,
                                       dq_size, 15)
    assert s_restricted.f1 == exact_f1(table, dq, 15, item_attrs={1})
    assert s_restricted.f1 <= s_unrestricted.f1
    assert s_restricted.est_itemsets <= s_unrestricted.est_itemsets
    assert s_restricted.chain_length <= 1  # one attribute, one chain step


# -- planted dense cores ------------------------------------------------------


def test_chain_lower_bound_fires_on_pure_subset():
    """A cluster-pure region (all records identical) has 2^n frequent
    itemsets; the greedy chain must report that explosion."""
    n_attrs = 8
    attrs = tuple(
        Attribute(f"a{i}", ("x", "y")) for i in range(n_attrs)
    )
    data = np.zeros((40, n_attrs), dtype=np.int32)  # all-identical records
    data[30:, :] = 1  # a second block so items are not universal
    table = RelationalTable(Schema(attrs), data)
    query = LocalizedQuery({0: frozenset({0})}, 0.5, 0.5)
    table, dq, dq_size = build_inputs(table, query.range_selections)
    stats = _model_arm_counts(query, table, dq, dq_size, min_count=15)
    assert stats.chain_length == n_attrs
    assert stats.est_itemsets >= 2.0 ** n_attrs
    assert stats.est_fanout >= 3.0 ** n_attrs
    # the pure block is a perfect pairwise core
    assert stats.density == pytest.approx(1.0)


def test_noisy_dense_core_priced_at_least_chain_bound():
    """The ISSUE's planted dense-core contract: a cluster-pure focal
    subset (here with per-attribute noise, so the greedy chain decays)
    must still price >= the measured-chain 3**L fan-out bound, and the
    triangle-anchored series must price the core above the mean-field
    dilution."""
    rng = np.random.default_rng(7)
    n_attrs = 10
    attrs = tuple(Attribute(f"a{i}", ("x", "y", "z")) for i in range(n_attrs))
    n = 300
    data = rng.integers(0, 3, size=(n, n_attrs)).astype(np.int32)
    # plant a 60% cluster whose signature fixes every attribute with 90%
    # probability — pairwise/triple-frequent core, decaying chain
    cluster = rng.random(n) < 0.6
    for ai in range(1, n_attrs):
        rows = cluster & (rng.random(n) < 0.9)
        data[rows, ai] = 0
    data[cluster, 0] = 0
    table = RelationalTable(Schema(attrs), data)
    query = LocalizedQuery({0: frozenset({0})}, 0.5, 0.5)
    table, dq, dq_size = build_inputs(table, query.range_selections)
    stats = _model_arm_counts(
        query, table, dq, dq_size,
        min_count=max(1, int(0.5 * dq_size)),
    )
    assert stats.est_fanout >= 3.0 ** min(stats.chain_length, 13)
    assert stats.est_itemsets >= 2.0 ** min(stats.chain_length, 16)
    # the signature items form a measured dense core
    assert stats.f3_sampled > 0


# -- monotonicity (unit-level; the hypothesis property is in
# tests/property/test_arm_model_properties.py) -------------------------------


def test_monotone_in_min_count():
    table = make_random_table(seed=137, n_records=80)
    query = LocalizedQuery({0: frozenset({0, 1, 2})}, 0.3, 0.5)
    table, dq, dq_size = build_inputs(table, query.range_selections)
    results = [
        _model_arm_counts(query, table, dq, dq_size, mc)
        for mc in (5, 10, 15, 20, 30)
    ]
    counts = [r.est_itemsets for r in results]
    fanouts = [r.est_fanout for r in results]
    chains = [r.chain_length for r in results]
    assert counts == sorted(counts, reverse=True)
    assert fanouts == sorted(fanouts, reverse=True)
    assert chains == sorted(chains, reverse=True)


# -- numeric helpers ----------------------------------------------------------


def test_real_comb_matches_integer_comb():
    import math

    for n in (3, 5, 12, 40):
        for k in (2, 3, 5):
            assert _real_comb(float(n), k) == pytest.approx(math.comb(n, k))
    assert _real_comb(2.0, 3) == 0.0  # below the support of C(., 3)


def test_clique_equivalent_size_inverts_comb():
    import math

    for c in (3, 5, 9, 14):
        x = _clique_equivalent_size(float(math.comb(c, 3)))
        assert x == pytest.approx(c, abs=1e-6)
    assert _clique_equivalent_size(0.0) == 0.0
