"""Synthetic benchmark generators: determinism, shape, planted locality."""

import numpy as np
import pytest

from repro import tidset as ts
from repro.dataset.synthetic import (
    LocalPattern,
    chess_like,
    mushroom_like,
    plant_local_pattern,
    pumsb_like,
    quest_like,
)
from repro.errors import DataError


@pytest.mark.parametrize(
    "generator", [chess_like, mushroom_like, pumsb_like, quest_like]
)
def test_deterministic_in_seed(generator):
    a = generator(seed=5)
    b = generator(seed=5)
    c = generator(seed=6)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_chess_like_shape():
    table = chess_like(n_records=300, n_attributes=10)
    assert table.n_records == 300
    assert table.n_attributes == 10
    assert table.schema.attributes[0].cardinality == 4  # region


def test_chess_like_is_dense():
    """A dominant background value makes columns heavily skewed."""
    table = chess_like(n_records=500, plant_patterns=False)
    for ai in range(1, table.n_attributes):
        top = np.bincount(table.data[:, ai]).max()
        assert top >= 0.6 * table.n_records


def test_mushroom_like_bimodal_clusters():
    """Two signature clusters -> long itemsets exist alongside short ones."""
    from tests.itemsets.reference_charm import charm

    table = mushroom_like(n_records=600, seed=11)
    closed = charm(table.item_tidsets(), table.n_records, 0.25)
    lengths = sorted({c.length for c in closed})
    assert lengths[0] <= 2
    assert lengths[-1] >= 5  # the long signature shows up


def test_pumsb_like_cfi_growth():
    """Closed-itemset count rises steeply as the threshold drops (Fig. 8)."""
    from tests.itemsets.reference_charm import charm

    table = pumsb_like(n_records=1500, seed=13)
    counts = [
        len(charm(table.item_tidsets(), table.n_records, supp))
        for supp in (0.4, 0.2, 0.1)
    ]
    assert counts[0] < counts[1] < counts[2]
    assert counts[2] >= 5 * max(counts[0], 1)


def test_generators_validate_arguments():
    with pytest.raises(DataError):
        chess_like(n_attributes=2)
    with pytest.raises(DataError):
        mushroom_like(n_attributes=3)
    with pytest.raises(DataError):
        pumsb_like(n_attributes=2)
    with pytest.raises(DataError):
        quest_like(n_categories=1)


def test_plant_local_pattern_creates_locality():
    rng = np.random.default_rng(0)
    cards = (4, 3, 3)
    data = np.column_stack(
        [rng.integers(0, c, size=2000) for c in cards]
    ).astype(np.int32)
    pattern = LocalPattern(
        region_attr=0,
        region_values=frozenset({1}),
        pattern=((1, 2), (2, 0)),
        strength=0.9,
        dilution=0.7,
    )
    plant_local_pattern(data, cards, pattern, rng)
    in_region = data[:, 0] == 1
    joint = (data[:, 1] == 2) & (data[:, 2] == 0)
    local_rate = joint[in_region].mean()
    global_rate = joint[~in_region].mean()
    assert local_rate > 0.8
    assert global_rate < 0.3


def test_plant_local_pattern_rejects_empty():
    with pytest.raises(DataError):
        plant_local_pattern(
            np.zeros((1, 2), dtype=np.int32),
            (2, 2),
            LocalPattern(0, frozenset({0}), ()),
            np.random.default_rng(0),
        )


def test_quest_like_region_cross_sell():
    """Each region plants a high-high category pair association."""
    table = quest_like(n_records=2000, n_categories=8, seed=17)
    region_col = table.data[:, 0]
    for region in range(4):
        in_region = region_col == region
        a, b = 3 + 2 * region, 4 + 2 * region
        joint = (table.data[:, a] == 2) & (table.data[:, b] == 2)
        assert joint[in_region].mean() > 0.5, region
        assert joint[~in_region].mean() < 0.2, region


def test_quest_like_schema_labels():
    table = quest_like(n_records=50, n_categories=3)
    assert table.schema.names[:3] == ("region", "daytype", "segment")
    assert table.schema.attribute("cat0").values == ("none", "low", "high")
