"""The offline callers against the brute-force oracle (``tests/oracle.py``).

``global_rules``, ``suggest_minconf``, ``explore_parameter_space``,
``find_rule_flips`` and ``find_vanishing_rules`` all count through the
packed item rows; here each answer is rebuilt from scanned rows.
"""

import numpy as np
import pytest

from repro.analysis.paramspace import explore_parameter_space
from repro.analysis.simpson import find_rule_flips, find_vanishing_rules
from repro.core.engine import Colarm
from repro.core.paramsuggest import suggest_minconf
from repro.core.query import LocalizedQuery
from repro.dataset.salary import salary_dataset
from tests import oracle
from tests.conftest import make_random_table, rows_of

CASES = {
    # table, primary support, focal selections, Aitem
    "salary": (salary_dataset, 0.15, {1: frozenset({0, 1})}, None),
    "random": (
        lambda: make_random_table(5, n_records=48, cardinalities=(3, 2, 3, 2)),
        0.1, {0: frozenset({0, 2})}, frozenset({1, 2, 3}),
    ),
}


def confidence_in(rows, rule):
    """``(antecedent count, confidence)`` of an oracle rule over ``rows``."""
    antecedent = oracle.support(rows, rule[0])
    both = oracle.support(rows, tuple(sorted(rule[0] + rule[1])))
    return antecedent, both / antecedent if antecedent else 0.0


def as_tuples(flips):
    return [
        (tuple(f.rule), f.global_confidence, f.local_confidence) for f in flips
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_offline_callers_equal_the_oracle(case):
    make_table, primary, selections, aitem = CASES[case]
    table = make_table()
    rows = rows_of(table)
    engine = Colarm(table, primary_support=primary)
    index = engine.index

    def mip_rules(query):
        return oracle.mip_rules(rows, primary, rows, 0, query, expand=False)

    # global_rules: the stored itemsets' rules over every record.
    for minsupp, minconf in ((primary, 0.0), (0.3, 0.6), (0.5, 0.9)):
        got = engine.global_rules(minsupp, minconf)
        assert [tuple(r) for r in got] == mip_rules(
            LocalizedQuery({}, minsupp, minconf)
        )

    # suggest_minconf: a quantile over every split of the first stored
    # itemsets, whatever their confidence (0.5 when they split into none).
    for sample in (3, 15, 200):
        sampled = oracle.rules_from(
            [index.mip(row).itemset for row in range(min(sample, index.n_mips))],
            rows, 0.0,
        )
        for fraction in (0.1, 0.5, 1.0):
            assert suggest_minconf(index, fraction, sample=sample) == (
                float(np.quantile([r[4] for r in sampled], 1.0 - fraction))
                if sampled else 0.5
            )

    # explore_parameter_space: every cell is that cell's answer, counted.
    dq = oracle.focal_rows(rows, LocalizedQuery(selections, 1.0, 1.0))
    floor = primary * len(rows) / len(dq)
    minsupps = (round(floor + 0.01, 3), round(floor + 0.2, 3), 0.9)
    minconfs = (0.0, 0.5, 0.8, 1.0)
    base = LocalizedQuery(selections, 0.5, 0.5, item_attributes=aitem)
    grid = explore_parameter_space(index, base, minsupps, minconfs)
    assert grid.counts == tuple(
        tuple(
            len(mip_rules(LocalizedQuery(selections, s, c, item_attributes=aitem)))
            for c in minconfs
        )
        for s in minsupps
    )
    assert [tuple(r) for r in grid.rules] == mip_rules(
        LocalizedQuery(selections, minsupps[0], 0.0, item_attributes=aitem)
    )

    # find_rule_flips: the local answer's rules whose confidence over
    # every record misses the threshold by the margin.
    for minconf, margin in ((0.5, 0.0), (0.7, 0.05)):
        query = LocalizedQuery(
            selections, minsupps[0], minconf, item_attributes=aitem
        )
        want = [
            (rule, confidence_in(rows, rule)[1], rule[4])
            for rule in mip_rules(query)
            if confidence_in(rows, rule)[1] < minconf - margin
        ]
        want.sort(key=lambda f: -(f[2] - f[1]))
        assert as_tuples(find_rule_flips(index, query, margin)) == want

        # find_vanishing_rules: the global answer's rules that occur in
        # focus and miss the threshold there.
        everywhere = LocalizedQuery({}, 0.2, minconf, item_attributes=aitem)
        want = [
            (rule, rule[4], confidence_in(dq, rule)[1])
            for rule in mip_rules(everywhere)
            if confidence_in(dq, rule)[0]
            and confidence_in(dq, rule)[1] < minconf - margin
        ]
        want.sort(key=lambda f: -(f[1] - f[2]))
        assert as_tuples(
            find_vanishing_rules(index, query, 0.2, margin)
        ) == want
