"""Closed itemset mining, rules and measures."""

from repro.itemsets.itemset import (
    Itemset,
    attributes_of,
    is_subset_itemset,
    make_itemset,
    min_count_for,
    proper_subsets,
    union_itemsets,
)
from repro.itemsets.measures import RuleStats, evaluate_all
from repro.itemsets.rules import Rule, RuleBlock, rules_from_subset_lattices

__all__ = [
    "Itemset",
    "make_itemset",
    "union_itemsets",
    "is_subset_itemset",
    "attributes_of",
    "proper_subsets",
    "min_count_for",
    "Rule",
    "RuleBlock",
    "rules_from_subset_lattices",
    "RuleStats",
    "evaluate_all",
]
