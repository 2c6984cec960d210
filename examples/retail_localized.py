#!/usr/bin/env python3
"""Retail scenario: region-local cross-sell rules hidden in the global view.

Uses the Quest-style retail dataset (region / daytype / customer segment /
product-category purchase levels) with planted region-local cross-sell
associations.  Shows the two future-work extensions of the paper at work:

* parameter suggestion — pick minsupp/minconf and promising focal subsets
  straight from the index (``repro.core.paramsuggest``);
* multi-query batching — probe every region in one batch, one plan
  execution per focal subset (``repro.core.multiquery``).

Run:  python examples/retail_localized.py
"""

from repro import Colarm, LocalizedQuery
from repro.core.multiquery import execute_batch
from repro.core.paramsuggest import suggest_minconf, suggest_minsupp, suggest_ranges
from repro.dataset import quest_like


def main() -> None:
    table = quest_like(n_records=1500, n_categories=6, seed=17)
    print(f"dataset: {table}")
    engine = Colarm(table, primary_support=0.05)
    print(f"MIP-index: {engine.n_mips} closed frequent itemsets")

    # Let the index propose thresholds and promising focal subsets.
    minsupp = round(suggest_minsupp(engine.index, qualify_fraction=0.10), 2)
    minconf = round(suggest_minconf(engine.index, target_fraction=0.25), 2)
    print(f"\nsuggested thresholds: minsupp={minsupp}, minconf={minconf}")
    print("most promising focal subsets (fresh local itemsets):")
    for suggestion in suggest_ranges(engine.index, minsupp=minsupp, top_k=4):
        print("  ", suggestion.describe(engine.schema))

    # Probe every region with one shared batch: the category attributes are
    # the items, region is the partitioning attribute.
    region = engine.schema.attribute_index("region")
    categories = frozenset(
        i for i, attr in enumerate(engine.schema.attributes)
        if attr.name.startswith("cat")
    )
    queries = [
        LocalizedQuery(
            range_selections={region: frozenset({value})},
            minsupp=minsupp,
            minconf=minconf,
            item_attributes=categories,
        )
        for value in range(engine.schema.attributes[region].cardinality)
    ]
    report = execute_batch(engine.index, queries)
    print(
        f"\nbatch of {report.n_queries} regional queries ran as "
        f"{report.n_groups} plan executions in {report.elapsed:.3f}s"
    )
    for item in report.items:
        label = engine.schema.attributes[region].values[
            next(iter(item.query.range_selections[region]))
        ]
        print(f"\nregion={label} ({item.dq_size} transactions): "
              f"{len(item.rules)} rules")
        for rule in item.rules[:4]:
            print("  ", rule.render(engine.schema))


if __name__ == "__main__":
    main()
