"""Property tests: a RuleBlock lists exactly the reference's rules.

The columnar block the query path returns must materialize, field for
field and in order, the ``list[Rule]`` the brute-force oracle
(``tests/oracle.mip_rules``) builds one tuple at a time from scanned
rows:

* **serial** — every MIP plan's block on a pristine index, closed and
  expanded;
* **main+delta** — the kernel path's block over a mutated
  :class:`MaintainedIndex` (appends, deletes, folds), closed and
  expanded;

and every way of holding the same rules — ``from_rules``, a pickle round
trip, ``pack``/``unpack``, slices — must compare equal to the list.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tidset as ts
from repro.core.maintenance import MaintainedIndex
from repro.core.mipindex import build_mip_index
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.dataset.table import RelationalTable
from repro.itemsets.rules import Rule, RuleBlock
from tests.property.test_focal_rulegen_properties import (
    MIP_PLANS,
    oracle_mip_rules,
    rule_scenarios,
)
from tests.property.test_maintenance_delta import (
    CARDS,
    PRIMARY,
    _apply_ops,
    _schema,
    oracle_rules,
    scenarios,
)


def _same_rules_every_way(block, reference: list[Rule]) -> None:
    """``block`` is ``reference``: by iteration, index, ``==`` both ways,
    and through every re-encoding."""
    assert isinstance(block, RuleBlock)
    assert len(block) == len(reference)
    listed = list(block)
    assert listed == reference
    assert all(
        type(got) is Rule and type(got.support_count) is int
        and type(got.support) is float and type(got.confidence) is float
        for got in listed
    )
    assert block == reference and reference == block
    assert [block[i] for i in range(len(reference))] == reference
    assert RuleBlock.from_rules(reference) == block
    assert pickle.loads(pickle.dumps(block)) == reference
    assert RuleBlock.unpack(*block.pack()) == reference
    half = len(reference) // 2
    assert block[half:] == reference[half:]
    assert RuleBlock.unpack(*block[:half].pack()) == reference[:half]


@settings(max_examples=25, deadline=None)
@given(rule_scenarios(), st.booleans())
def test_block_lists_the_scalar_reference_serial(scenario, expand):
    table, query = scenario
    index = build_mip_index(table, primary_support=0.05)
    if ts.count(table.tids_matching(query.range_selections)) == 0:
        return  # empty focal subset: every plan raises, nothing to compare
    reference = [
        Rule(*r) for r in oracle_mip_rules(table, 0.05, query, expand)
    ]
    for kind in MIP_PLANS:
        block = execute_plan(kind, index, query, expand=expand).rules
        _same_rules_every_way(block, reference)


@settings(max_examples=20, deadline=None)
@given(scenarios(), st.booleans())
def test_block_lists_the_scalar_reference_main_plus_delta(scenario, expand):
    seed, n_base, ops, selections, minsupp, minconf = scenario
    rng = np.random.default_rng(seed)
    base = np.column_stack(
        [rng.integers(0, c, size=n_base) for c in CARDS]
    ).astype(np.int32)
    mx = MaintainedIndex(build_mip_index(
        RelationalTable(_schema(), base), primary_support=PRIMARY,
    ))
    rows = [list(map(int, r)) for r in base]
    alive = [True] * n_base
    _apply_ops(mx, rows, alive, ops)
    query = LocalizedQuery(selections, minsupp, minconf)
    reference = [Rule(*r) for r in oracle_rules(mx, rows, alive, query, expand)]
    for kind in (PlanKind.SEV, PlanKind.SSVS):
        got = execute_plan(kind, mx.index, query, expand=expand, delta=mx)
        _same_rules_every_way(got.rules, reference)
