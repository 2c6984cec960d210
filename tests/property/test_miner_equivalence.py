"""Property tests: the enumerations ``src/`` runs agree with the
definitions on random relational tables — every frequent itemset out of
the kernel's subset lattice, CHARM's closed itemsets as their closures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tidset as ts
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable
from repro.itemsets.itemset import is_subset_itemset
from tests.itemsets.enumerations import frequent_by_kernel, oracle_frequent
from tests.itemsets.reference_charm import charm


@st.composite
def tables(draw):
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


minsupps = st.sampled_from([0.1, 0.25, 0.4, 0.6])


@settings(max_examples=40, deadline=None)
@given(tables(), minsupps)
def test_apriori_equals_eclat(table, minsupp):
    """Level-wise out of the kernel == scanned from the definitions (the
    two miners this id names left ``src/``; the floor file tracks it)."""
    listed = frequent_by_kernel(table, minsupp)
    assert dict(listed) == oracle_frequent(table, minsupp)
    assert [(len(f), f) for f, _ in listed] == sorted(
        (len(f), f) for f, _ in listed
    )


@settings(max_examples=40, deadline=None)
@given(tables(), minsupps)
def test_charm_is_exactly_the_closures(table, minsupp):
    tidsets = {
        items: table.itemset_tidset(items)
        for items in oracle_frequent(table, minsupp)
    }
    closed = charm(table.item_tidsets(), table.n_records, minsupp)
    by_tidset = {c.tidset: c for c in closed}
    # one closed itemset per distinct frequent tidset
    assert set(by_tidset) == set(tidsets.values())
    assert len(by_tidset) == len(closed)
    for items, tidset in tidsets.items():
        assert is_subset_itemset(items, by_tidset[tidset].items)
    # closedness: the closure equals the items shared by all its records
    for cfi in closed:
        shared = tuple(sorted(
            item for item, mask in table.item_tidsets().items()
            if ts.is_subset(cfi.tidset, mask)
        ))
        assert cfi.items == shared
