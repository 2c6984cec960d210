"""Rule generation: exactness vs brute force, thresholds, distinctness.

The generator under test is the one every plan runs — a source's
sub-itemset counts from ``FocalKernel.count_subset_lattice``, its splits
from ``rules_from_subset_lattices`` — driven one source at a time.
"""

import itertools

import pytest

from repro.dataset.schema import Item
from repro.errors import DataError
from repro.itemsets.itemset import make_itemset, min_count_for
from repro.itemsets.rules import Rule, rules_from_subset_lattices
from tests.conftest import make_random_table
from tests.itemsets.enumerations import focal_kernel


def rules_from_itemsets(table, itemsets, minsupp, minconf, floor=None):
    """The rules of ``itemsets`` (same-width sources) over the whole table;
    with ``floor`` the sources are their distinct frequent sub-itemsets."""
    ids = [[table.schema.item_id(i) for i in itemset] for itemset in itemsets]
    return rules_from_subset_lattices(
        focal_kernel(table).count_subset_lattice(ids, floor=floor),
        table.n_records,
        minconf,
        schema=table.schema,
        min_count=min_count_for(minsupp, table.n_records),
    )


def generate_rules(table, itemset, minconf):
    return rules_from_itemsets(table, [itemset], 0.0, minconf)


def brute_force_rules(table, itemset, minconf):
    """Every antecedent split checked by direct counting."""
    n = len(itemset)
    total = table.support_count(itemset)
    out = set()
    for r in range(1, n):
        for antecedent in itertools.combinations(itemset, r):
            consequent = tuple(i for i in itemset if i not in antecedent)
            conf = total / table.support_count(antecedent)
            if conf >= minconf:
                out.add((tuple(antecedent), consequent))
    return out


@pytest.mark.parametrize("minconf", [0.0, 0.5, 0.8, 1.0])
def test_generate_rules_matches_brute_force(salary, minconf):
    itemsets = [
        make_itemset([salary.schema.item("Age", "20-30"),
                      salary.schema.item("Salary", "90K-120K")]),
        make_itemset([salary.schema.item("Location", "Seattle"),
                      salary.schema.item("Gender", "F"),
                      salary.schema.item("Salary", "90K-120K")]),
        make_itemset([salary.schema.item("Company", "Google"),
                      salary.schema.item("Location", "Boston"),
                      salary.schema.item("Age", "20-30"),
                      salary.schema.item("Salary", "90K-120K")]),
    ]
    for itemset in itemsets:
        got = {(r.antecedent, r.consequent)
               for r in generate_rules(salary, itemset, minconf)}
        assert got == brute_force_rules(salary, itemset, minconf)


def test_generate_rules_on_random_tables():
    for seed in range(3):
        table = make_random_table(seed, n_records=40)
        itemset = make_itemset([Item(0, 0), Item(1, 0), Item(2, 0)])
        if table.support_count(itemset) == 0:
            continue
        got = {(r.antecedent, r.consequent)
               for r in generate_rules(table, itemset, 0.3)}
        assert got == brute_force_rules(table, itemset, 0.3)


def test_rule_stats_are_exact(salary):
    itemset = make_itemset([salary.schema.item("Age", "20-30"),
                            salary.schema.item("Salary", "90K-120K")])
    rules = generate_rules(salary, itemset, 0.0)
    for rule in rules:
        assert rule.support_count == salary.support_count(itemset)
        assert rule.support == pytest.approx(salary.support(itemset))
        assert rule.confidence == pytest.approx(
            salary.support_count(itemset)
            / salary.support_count(rule.antecedent)
        )
        assert rule.items == itemset


def test_singleton_itemset_yields_no_rules(salary):
    itemset = make_itemset([salary.schema.item("Gender", "F")])
    assert generate_rules(salary, itemset, 0.0) == []


def test_unsupported_itemset_yields_no_rules(salary):
    itemset = make_itemset([salary.schema.item("Company", "Facebook"),
                            salary.schema.item("Location", "Boston")])
    assert salary.support_count(itemset) == 0
    assert generate_rules(salary, itemset, 0.0) == []


def test_none_support_skips(salary):
    """A row naming no item — all padding, what a narrower source is
    right-padded with — is no source."""
    pad = salary.schema.n_items
    cells = focal_kernel(salary).count_subset_lattice([(pad, pad)])
    assert len(cells) == 0 and len(cells.counts) == 0
    assert rules_from_subset_lattices(
        cells, salary.n_records, 0.5, schema=salary.schema
    ) == []


def test_bad_minconf_rejected(salary):
    itemset = make_itemset([salary.schema.item("Age", "20-30"),
                            salary.schema.item("Salary", "90K-120K")])
    with pytest.raises(DataError):
        generate_rules(salary, itemset, 1.5)


def test_rules_from_itemsets_filters_minsupp(salary):
    itemsets = [
        make_itemset([salary.schema.item("Age", "20-30"),
                      salary.schema.item("Salary", "90K-120K")]),  # 5/11
        make_itemset([salary.schema.item("Age", "30-40"),
                      salary.schema.item("Salary", "90K-120K")]),  # 3/11
    ]
    rules = rules_from_itemsets(salary, itemsets, 0.4, 0.0)
    assert len(rules) == 2 and all(r.items == itemsets[0] for r in rules)


def test_rules_from_itemsets_dedupes(salary):
    """Sources sharing a sub-itemset list it once: with ``floor`` the
    sources are the *distinct* frequent sub-itemsets."""
    age = salary.schema.item("Age", "20-30")
    pay = salary.schema.item("Salary", "90K-120K")
    closures = [
        make_itemset([age, pay, salary.schema.item("Gender", "F")]),
        make_itemset([age, pay, salary.schema.item("Location", "Boston")]),
    ]
    rules = rules_from_itemsets(salary, closures, 0.1, 0.0, floor=2)
    keys = [(r.antecedent, r.consequent) for r in rules]
    assert len(keys) == len(set(keys))
    assert sum(r.items == (age, pay) for r in rules) == 2


def test_render(salary):
    rule = Rule(
        antecedent=(salary.schema.item("Age", "20-30"),),
        consequent=(salary.schema.item("Salary", "90K-120K"),),
        support_count=5,
        support=5 / 11,
        confidence=5 / 6,
    )
    text = rule.render(salary.schema)
    assert "{Age=20-30} => {Salary=90K-120K}" in text
    assert "supp=0.455" in text
