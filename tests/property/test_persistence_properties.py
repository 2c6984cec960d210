"""Property tests: index persistence round-trips on random tables."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mipindex import build_mip_index
from repro.core.persistence import load_index, save_index
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable


@st.composite
def small_tables(draw):
    n_attrs = draw(st.integers(min_value=2, max_value=4))
    cards = [draw(st.integers(min_value=2, max_value=4)) for _ in range(n_attrs)]
    n_records = draw(st.integers(min_value=5, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    data = np.column_stack(
        [rng.integers(0, c, size=n_records) for c in cards]
    ).astype(np.int32)
    attrs = tuple(
        Attribute(f"a{i}", tuple(f"v{v}" for v in range(c)))
        for i, c in enumerate(cards)
    )
    return RelationalTable(Schema(attrs), data)


@settings(max_examples=15, deadline=None)
@given(small_tables(), st.sampled_from([0.1, 0.3]))
def test_roundtrip_preserves_everything(tmp_path_factory, table, primary):
    index = build_mip_index(table, primary_support=primary)
    path = tmp_path_factory.mktemp("persist") / "t.npz"
    save_index(index, path)
    loaded, weights = load_index(path)
    assert weights is None
    assert loaded.table.schema == index.table.schema
    assert np.array_equal(loaded.table.data, index.table.data)
    assert np.array_equal(
        loaded.stats.mip_fixed_values, index.stats.mip_fixed_values
    )
    assert np.array_equal(loaded.mip_tidset_matrix, index.mip_tidset_matrix)
    assert np.array_equal(loaded.global_counts, index.global_counts)
    assert loaded.stats.length_histogram == index.stats.length_histogram
