"""Every frequent itemset, level by level, against exhaustive enumeration.

Apriori left ``src/`` in PR 24 (nothing ran it); the level-wise
enumeration a request does run — the items, then the closed itemsets'
frequent sub-itemsets out of the kernel's subset lattice
(``tests/itemsets/enumerations.frequent_by_kernel``) — is held here to
the checks Apriori was held to.  The test ids are the ones the floor file
tracks, hence the names.
"""

import itertools

import pytest

from repro import tidset as ts
from repro.errors import DataError
from repro.itemsets.itemset import min_count_for
from tests.conftest import make_random_table
from tests.itemsets.enumerations import focal_kernel, frequent_by_kernel


def brute_force_frequent(table, minsupp, max_length=None):
    """Enumerate every itemset by exhaustive search (small tables only)."""
    min_count = min_count_for(minsupp, table.n_records)
    items = sorted(table.item_tidsets())
    out = {}
    max_k = max_length or table.n_attributes
    for k in range(1, max_k + 1):
        for combo in itertools.combinations(items, k):
            attrs = [i.attribute for i in combo]
            if len(set(attrs)) != len(attrs):
                continue
            count = ts.count(table.itemset_tidset(combo))
            if count >= min_count:
                out[tuple(combo)] = count
    return out


def test_min_count_for():
    assert min_count_for(0.5, 10) == 5
    assert min_count_for(0.45, 11) == 5  # ceil(4.95)
    assert min_count_for(0.0, 10) == 1   # empty support never frequent
    assert min_count_for(1.0, 7) == 7
    with pytest.raises(DataError):
        min_count_for(1.5, 10)


def test_apriori_salary_level1(salary):
    singletons = [f for f, _ in frequent_by_kernel(salary, 0.5) if len(f) == 1]
    # Items with count >= 6/11: Gender=F (7), Age=20-30 (6), Salary=90K-120K (8)
    assert len(singletons) == 3


def test_apriori_matches_brute_force(salary):
    for minsupp in (0.2, 0.35, 0.5):
        assert dict(frequent_by_kernel(salary, minsupp)) == brute_force_frequent(
            salary, minsupp
        ), minsupp


def test_apriori_on_random_tables():
    for seed in range(3):
        table = make_random_table(seed, n_records=40)
        assert dict(frequent_by_kernel(table, 0.2)) == brute_force_frequent(
            table, 0.2
        )


def test_apriori_max_length(salary):
    """The levels come out one after the other: cutting after the pairs
    is every frequent itemset of at most two items."""
    short = [f for f, _ in frequent_by_kernel(salary, 0.2) if len(f) <= 2]
    assert max(map(len, short)) == 2
    assert set(short) == set(brute_force_frequent(salary, 0.2, max_length=2))


def test_apriori_output_is_sorted(salary):
    keys = [(len(f), f) for f, _ in frequent_by_kernel(salary, 0.3)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_apriori_respects_relational_constraint(salary):
    for f, _ in frequent_by_kernel(salary, 0.1):
        attrs = [i.attribute for i in f]
        assert len(set(attrs)) == len(attrs)


def test_apriori_support_counts_are_exact(salary):
    for f, count in frequent_by_kernel(salary, 0.3):
        assert count == salary.support_count(f)


def test_apriori_nothing_frequent():
    table = make_random_table(1, n_records=30)
    # Only items present in every record can qualify (usually none).
    for _, count in frequent_by_kernel(table, 1.0):
        assert count == table.n_records


def test_frequent_itemset_support_on_empty_universe(salary):
    """No record in focus: every itemset counts zero, the empty one too."""
    kernel = focal_kernel(salary, dq=ts.EMPTY)
    (_, counts, _), = kernel.count_subset_lattice([(0, 6, 10)])
    assert kernel.dq_size == 0 and not counts.any()
    assert kernel.count_subset_lattice([(0, 6, 10)], floor=1) == []
