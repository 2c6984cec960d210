"""The vertical form: frequent itemsets of a *focal subset* off its
projected tidsets.

Eclat — the tidset miner — left ``src/`` in PR 24; the vertical mining a
request runs is over the item rows projected onto ``D^Q``
(``tests/itemsets/enumerations``), and is held here to the oracle's scan
of the same records.  The test ids are the ones the floor file tracks,
hence the names.
"""

import numpy as np

from repro import tidset as ts
from tests.conftest import make_random_table
from tests.itemsets.enumerations import frequent_by_kernel, oracle_frequent


def assert_same(table, minsupp, dq=None, max_length=None):
    want = oracle_frequent(table, minsupp, dq)
    got = frequent_by_kernel(table, minsupp, dq)
    if max_length is not None:
        want = {f: n for f, n in want.items() if len(f) <= max_length}
        got = [(f, n) for f, n in got if len(f) <= max_length]
    assert dict(got) == want and len(got) == len(want)


def random_dq(table, seed):
    rng = np.random.default_rng(seed)
    return ts.from_tids(np.flatnonzero(rng.random(table.n_records) < 0.5).tolist())


def test_eclat_equals_apriori_on_salary(salary):
    seattle = salary.tids_matching({salary.schema.attribute_index("Location"): {
        salary.schema.attribute("Location").value_index("Seattle")
    }})
    for minsupp in (0.15, 0.3, 0.5, 0.8):
        assert_same(salary, minsupp)
        assert_same(salary, minsupp, dq=seattle)


def test_eclat_equals_apriori_on_random_tables():
    for seed in range(5):
        table = make_random_table(seed, n_records=50)
        assert_same(table, 0.2, dq=random_dq(table, seed))


def test_eclat_max_length(salary):
    assert_same(salary, 0.2, max_length=2)
    assert_same(salary, 0.2, max_length=1)


def test_eclat_high_threshold_empty(salary):
    assert frequent_by_kernel(salary, 0.99) == []
