"""Closed IT-tree (the §3.3 reference, ``tests/itemsets/reference_ittree``):
closure lookup, levels, local support counts — and the count ``src/``
takes from the packed item rows instead, held to the tree's."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tidset as ts
from repro.core.mipindex import build_mip_index
from repro.errors import IndexError_
from repro.itemsets.itemset import min_count_for
from tests.conftest import make_random_table
from tests.itemsets.enumerations import focal_kernel, oracle_frequent
from tests.itemsets.reference_charm import charm
from tests.itemsets.reference_ittree import ClosedITTree


@pytest.fixture()
def salary_tree(salary):
    closed = charm(salary.item_tidsets(), salary.n_records, 0.15)
    return ClosedITTree(closed), closed


def test_len_and_iteration(salary_tree):
    tree, closed = salary_tree
    assert len(tree) == len(closed)
    assert list(tree) == list(closed)


def test_levels_follow_lemma_4_3(salary_tree):
    """Lemma 4.3: an itemset's level equals its number of singleton items."""
    tree, closed = salary_tree
    levels = tree.levels()
    assert sum(levels.values()) == len(closed)
    for level, members in levels.items():
        assert len(tree.at_level(level)) == members
        assert all(c.length == level for c in tree.at_level(level))
    assert tree.height == max(c.length for c in closed)


def test_get_exact(salary_tree):
    tree, closed = salary_tree
    for cfi in closed:
        assert tree.get(cfi.items) is cfi


def test_closure_of_every_frequent_itemset(salary):
    """closure lookup returns the exact tidset of any floor-covered itemset."""
    closed = charm(salary.item_tidsets(), salary.n_records, 0.15)
    tree = ClosedITTree(closed)
    for items, count in oracle_frequent(salary, 0.15).items():
        closure = tree.closure_of(items)
        assert closure is not None
        assert closure.tidset == salary.itemset_tidset(items)
        assert set(items) <= set(closure.items)
        assert tree.support_count_of(items) == count


def test_closure_below_floor_is_none(salary):
    closed = charm(salary.item_tidsets(), salary.n_records, 0.4)
    tree = ClosedITTree(closed)
    # An itemset with support below the floor has no stored superset.
    rare = (salary.schema.item("Company", "Facebook"),
            salary.schema.item("Age", "20-30"))
    assert salary.support(rare) < 0.4
    assert tree.closure_of(rare) is None
    assert tree.support_count_of(rare) is None
    assert tree.local_support_count(rare, ts.full(11)) is None


def test_closure_of_empty_is_none(salary_tree):
    tree, _ = salary_tree
    assert tree.closure_of(()) is None


def test_local_support_count(salary):
    closed = charm(salary.item_tidsets(), salary.n_records, 0.15)
    tree = ClosedITTree(closed)
    loc = salary.schema.attribute_index("Location")
    seattle = salary.schema.attributes[loc].value_index("Seattle")
    dq = salary.tids_matching({loc: {seattle}})
    a1 = salary.schema.item("Age", "30-40")
    s2 = salary.schema.item("Salary", "90K-120K")
    assert tree.local_support_count((a1, s2), dq) == 3


def test_rejects_duplicate_itemsets(salary):
    closed = charm(salary.item_tidsets(), salary.n_records, 0.3)
    with pytest.raises(IndexError_):
        ClosedITTree(list(closed) + [closed[0]])


def test_random_tables_closure_consistency():
    for seed in range(3):
        table = make_random_table(seed, n_records=40)
        closed = charm(table.item_tidsets(), table.n_records, 0.2)
        tree = ClosedITTree(closed)
        for items in oracle_frequent(table, 0.2):
            closure = tree.closure_of(items)
            assert closure is not None
            assert closure.tidset == table.itemset_tidset(items)


def test_empty_tree():
    from repro.dataset.schema import Item

    tree = ClosedITTree([])
    assert len(tree) == 0
    assert tree.height == 0
    assert tree.levels() == {}
    assert tree.closure_of([Item(0, 0)]) is None


# -- the packed item rows answer what the tree answers --------------------------


@st.composite
def counting_cases(draw):
    """A random table with its index, a random focal tidset, and itemsets:
    sub-itemsets of stored ones plus arbitrary ones (some under the floor)."""
    cards = tuple(draw(st.integers(2, 4)) for _ in range(draw(st.integers(2, 4))))
    table = make_random_table(
        draw(st.integers(0, 2**20)), draw(st.integers(5, 70)), cards
    )
    index = build_mip_index(table, draw(st.sampled_from([0.05, 0.2, 0.4])))
    dq = draw(st.integers(0, (1 << table.n_records) - 1))
    itemsets = set()
    mips = [index.mip(row) for row in range(index.n_mips)]
    for mip in draw(st.lists(st.sampled_from(mips), max_size=6)
                    if mips else st.just([])):
        picked = draw(st.sets(st.sampled_from(mip.itemset), min_size=1))
        itemsets.add(tuple(sorted(picked)))
    for _ in range(draw(st.integers(1, 4))):
        attrs = draw(st.sets(st.integers(0, len(cards) - 1), min_size=1))
        itemsets.add(tuple(
            table.schema.item(a, draw(st.integers(0, cards[a] - 1)))
            for a in sorted(attrs)
        ))
    return index, dq, sorted(itemsets)


@settings(max_examples=60, deadline=None)
@given(counting_cases())
def test_kernel_count_equals_the_tree_lookup(case):
    index, dq, itemsets = case
    table, schema = index.table, index.table.schema
    tree = ClosedITTree(
        charm(table.item_tidsets(), table.n_records, index.primary_support)
    )
    kernel = focal_kernel(table, dq)
    counted = {}
    for itemset in itemsets:
        (_, counts, _), = kernel.count_subset_lattice(
            [[schema.item_id(item) for item in itemset]]
        )
        counted[itemset] = int(counts[0, -1])
    floor = min_count_for(index.primary_support, table.n_records)
    for itemset in itemsets:
        covered = table.support_count(itemset) >= floor
        assert (tree.closure_of(itemset) is not None) == covered
        if covered:
            assert tree.local_support_count(itemset, dq) == counted[itemset]
        else:
            assert tree.local_support_count(itemset, dq) is None
        # ...and below the floor the rows still count exactly.
        assert counted[itemset] == ts.count(table.itemset_tidset(itemset) & dq)
