"""CHARM: closedness, completeness, exact closures (vs brute force)."""

from repro import tidset as ts
from repro.itemsets.itemset import is_subset_itemset, min_count_for
from tests.conftest import make_random_table
from tests.itemsets.enumerations import oracle_frequent
from tests.itemsets.reference_charm import charm


def brute_force_closure(table, tidset):
    """The closure of a tidset: all items shared by every record in it."""
    items = []
    for item, mask in table.item_tidsets().items():
        if ts.is_subset(tidset, mask):
            items.append(item)
    return tuple(sorted(items))


def frequent_tidsets(table, minsupp):
    """Every frequent itemset (enumerated from the definitions) with its
    tidset."""
    return {
        items: table.itemset_tidset(items)
        for items in oracle_frequent(table, minsupp)
    }


def check_charm(table, minsupp):
    closed = charm(table.item_tidsets(), table.n_records, minsupp)
    frequent = frequent_tidsets(table, minsupp)
    min_count = min_count_for(minsupp, table.n_records)

    # 1. Every output is frequent and its tidset is exact.
    for cfi in closed:
        assert cfi.support_count >= min_count
        assert cfi.tidset == table.itemset_tidset(cfi.items)

    # 2. Every output is CLOSED: it equals the closure of its tidset.
    for cfi in closed:
        assert cfi.items == brute_force_closure(table, cfi.tidset)

    # 3. Completeness: one closed set per distinct frequent tidset, and it
    #    covers every frequent itemset with that tidset.
    by_tidset = {c.tidset: c for c in closed}
    assert len(by_tidset) == len(closed)
    assert set(by_tidset) == set(frequent.values())
    for items, tidset in frequent.items():
        assert is_subset_itemset(items, by_tidset[tidset].items)

    return closed


def test_charm_on_salary(salary):
    for minsupp in (0.15, 0.3, 0.5):
        check_charm(salary, minsupp)


def test_charm_on_random_tables():
    for seed in range(5):
        table = make_random_table(seed, n_records=50)
        check_charm(table, 0.2)


def test_charm_smaller_than_frequent(salary):
    closed = charm(salary.item_tidsets(), salary.n_records, 0.2)
    assert len(closed) < len(frequent_tidsets(salary, 0.2))


def test_charm_output_sorted(salary):
    closed = charm(salary.item_tidsets(), salary.n_records, 0.2)
    keys = [(c.length, c.items) for c in closed]
    assert keys == sorted(keys)


def test_charm_high_threshold():
    table = make_random_table(2, n_records=30)
    assert charm(table.item_tidsets(), table.n_records, 0.999) == []


def test_closed_itemset_properties(salary):
    closed = charm(salary.item_tidsets(), salary.n_records, 0.3)
    cfi = closed[0]
    assert cfi.length == len(cfi.items)
    assert cfi.support(salary.n_records) == cfi.support_count / 11
    assert cfi.support(0) == 0.0
