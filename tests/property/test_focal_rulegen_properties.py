"""Property tests: the focal-projected rule-generation path is exact.

Two invariants guard the batched VERIFY pipeline:

* **Count parity** — for random tables, focal regions, and itemsets, the
  :class:`repro.kernels.FocalKernel`'s projected counts (every cell of
  every source's subset lattice) equal the big-int reference
  ``popcount(t(I) & D^Q)``, including items missing from the table,
  empty focal subsets, and universes straddling the 64-bit word boundary;
* **Rule-set parity** — for every plan on random scenarios, in both
  expanded and non-expanded mode, the batched extraction
  (:func:`repro.core.operators._rules_from_qualified` via
  ``FocalKernel`` + :func:`repro.itemsets.rules.rules_from_subset_lattices`)
  returns *byte-identical* rules — antecedent, consequent, counts, and
  float support/confidence — to the brute-force oracle's MIP-family
  answer (``tests/oracle.mip_rules``: rows scanned, every split of every
  source checked).
"""

from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, tidset as ts
from repro.core.mipindex import build_mip_index
from repro.core.operators import (
    _rules_from_qualified,
    make_context,
    op_eliminate,
    op_search,
)
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable
from tests import oracle
from tests.conftest import rows_of
from tests.itemsets.enumerations import per_source

MIP_PLANS = (PlanKind.SEV, PlanKind.SVS, PlanKind.SSEV, PlanKind.SSVS,
             PlanKind.SSEUV)


# ---------------------------------------------------------------------------
# Count parity: FocalKernel vs the big-int AND chain
# ---------------------------------------------------------------------------


@st.composite
def kernel_cases(draw):
    """Random packed item rows, a focal mask, and itemsets over the ids."""
    n = draw(st.sampled_from([1, 7, 63, 64, 65, 130, 300]))
    n_items = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    # Item 0 occurs in no record: zero-tidset semantics.
    tidsets = [0] + [
        ts.from_tids(
            np.flatnonzero(rng.random(n) < rng.uniform(0.1, 0.9)).tolist()
        )
        for _ in range(n_items)
    ]
    mask = ts.from_tids(
        np.flatnonzero(rng.random(n) < rng.uniform(0.0, 0.9)).tolist()
    )
    itemsets = [
        tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n_items),
                        min_size=1,
                        max_size=min(n_items + 1, 5),
                    )
                )
            )
        )
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    return n, tidsets, mask, itemsets


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_focal_counts_match_bigint_reference(case):
    n, tidsets, mask, itemsets = case
    words = kernels.n_words(n)
    kernel = kernels.FocalKernel(
        kernels.project_rows(
            kernels.pack_many(tidsets, words), kernels.pack(mask, words)
        ),
        ts.count(mask),
    )

    def reference(itemset):
        inter = reduce(lambda acc, i: acc & tidsets[i], itemset, mask)
        return ts.count(inter)

    # Sources of mixed widths, right-padded with "no item"; every cell of
    # every source's lattice must agree with the reference.
    width = max(map(len, itemsets))
    padded = [s + (len(tidsets),) * (width - len(s)) for s in itemsets]
    seen = []
    for source, row, _ in per_source(kernel.count_subset_lattice(padded)):
        seen.append(source)
        assert len(row) == 1 << len(source)
        for cell, count_ in enumerate(row):
            subset = [i for k, i in enumerate(source) if cell >> k & 1]
            assert count_ == reference(subset), (source, cell)
    assert sorted(seen) == sorted(itemsets)
    assert kernel.item_tidsets() == [_dense(t, mask) for t in tidsets]


def _dense(tidset: int, mask: int) -> int:
    """``tidset``'s bits at the set positions of ``mask``, packed densely."""
    out = 0
    for p, tid in enumerate(ts.to_list(mask)):
        out |= (tidset >> tid & 1) << p
    return out


# ---------------------------------------------------------------------------
# Rule-set parity: batched extraction vs the brute-force oracle, all plans
# ---------------------------------------------------------------------------


@st.composite
def rule_scenarios(draw):
    n_attrs = draw(st.integers(min_value=3, max_value=4))
    cards = [draw(st.integers(min_value=2, max_value=4)) for _ in range(n_attrs)]
    n_records = draw(st.integers(min_value=20, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    data = np.column_stack(
        [rng.integers(0, c, size=n_records) for c in cards]
    ).astype(np.int32)
    attrs = tuple(
        Attribute(f"a{i}", tuple(f"v{v}" for v in range(c)))
        for i, c in enumerate(cards)
    )
    table = RelationalTable(Schema(attrs), data)

    ai = draw(st.integers(min_value=0, max_value=n_attrs - 1))
    values = draw(
        st.sets(
            st.integers(min_value=0, max_value=cards[ai] - 1),
            min_size=1, max_size=cards[ai],
        )
    )
    aitem = None
    if draw(st.booleans()):
        size = draw(st.integers(min_value=1, max_value=n_attrs - 1))
        aitem = frozenset(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_attrs - 1),
                    min_size=size, max_size=size, unique=True,
                )
            )
        )
    query = LocalizedQuery(
        range_selections={ai: frozenset(values)},
        minsupp=draw(st.sampled_from([0.2, 0.4, 0.6])),
        minconf=draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
        item_attributes=aitem,
    )
    return table, query


def _exact(rules):
    """Byte-exact comparison key: all fields including the floats."""
    return [tuple(r) for r in rules]


def oracle_mip_rules(table, primary_support, query, expand):
    """The MIP family's answer on a pristine index over ``table``."""
    rows = rows_of(table)
    return oracle.mip_rules(rows, primary_support, rows, 0, query, expand)


@settings(max_examples=25, deadline=None)
@given(rule_scenarios(), st.booleans())
def test_batched_rules_match_scalar_reference_all_plans(scenario, expand):
    table, query = scenario
    index = build_mip_index(table, primary_support=0.05)
    dq = table.tids_matching(query.range_selections)
    if ts.count(dq) == 0:
        return  # empty focal subset: every plan raises, nothing to compare

    # Reference rules: the oracle scans the rows (the scalar reference
    # this id names left ``src/``; the floor file tracks the id).
    ref_rules = oracle_mip_rules(table, 0.05, query, expand)

    # The batched path must agree byte-for-byte when fed the SEV
    # pipeline's qualified candidates...
    ref_ctx = make_context(index, query, expand=expand)
    qualified = op_eliminate(ref_ctx, op_search(ref_ctx))
    batched_rules, _lk, _ks = _rules_from_qualified(ref_ctx, qualified)
    assert _exact(batched_rules) == ref_rules

    # ...and through every full plan pipeline (array-native end to end).
    for kind in MIP_PLANS:
        result = execute_plan(kind, index, query, expand=expand)
        assert _exact(result.rules) == ref_rules, kind
