"""End-to-end FIMI smoke test: a bundled ``.dat`` fixture through the
full pipeline — load, relational conversion, index build, one localized
query (all plans, plus a cached repeat).

The fixture (``fixtures/micro_chess.dat``) is a 60-transaction
chess-style dataset: every record carries exactly one item per
attribute, with item ids partitioned per attribute exactly like the
FIMI chess/mushroom encodings the experiment specs consume.
"""

from pathlib import Path

from repro import tidset as ts
from repro.core.engine import Colarm
from repro.core.plans import PlanKind
from repro.core.query import LocalizedQuery
from repro.dataset.loaders import load_fimi, save_fimi, transactions_to_table

FIXTURE = Path(__file__).parent / "fixtures" / "micro_chess.dat"
#: The fixture's item-id partition: one attribute per contiguous block.
ATTR_ITEMS = {"a0": (1, 2, 3), "a1": (4, 5, 6), "a2": (7, 8),
              "a3": (9, 10, 11)}


def attribute_map():
    return {
        item: name for name, items in ATTR_ITEMS.items() for item in items
    }


def test_fixture_roundtrips_through_save(tmp_path):
    txns = load_fimi(FIXTURE)
    assert len(txns) == 60
    path = tmp_path / "copy.dat"
    save_fimi(txns, path)
    assert load_fimi(path) == txns


def test_fixture_to_table_schema():
    table = transactions_to_table(load_fimi(FIXTURE), attribute_map())
    assert table.n_records == 60
    assert table.schema.names == ("a0", "a1", "a2", "a3")
    assert table.schema.attribute("a1").values == ("4", "5", "6")


def test_fixture_through_index_build_and_query():
    txns = load_fimi(FIXTURE)
    table = transactions_to_table(txns, attribute_map())
    engine = Colarm(table, primary_support=0.05)
    # Focal subset: records whose a2-item is 7 (attribute value index 0).
    query = LocalizedQuery({2: frozenset({0})}, 0.2, 0.6)
    dq = table.tids_matching(query.range_selections)
    dq_size = ts.count(dq)
    assert dq_size == sum(1 for t in txns if 7 in t)

    results = {k: engine.query(query, plan=k) for k in PlanKind}
    key = lambda rs: sorted(
        (r.antecedent, r.consequent, r.support_count) for r in rs
    )
    base = key(results[PlanKind.SEV].rules)
    assert base  # the fixture's a0->a1 correlation yields rules
    for kind in (PlanKind.SVS, PlanKind.SSEV, PlanKind.SSVS, PlanKind.SSEUV):
        assert key(results[kind].rules) == base, kind
    # Every emitted support is exact against direct counting.
    for rule in results[PlanKind.SEV].rules:
        assert rule.support_count == ts.count(
            table.itemset_tidset(rule.items) & dq
        )

    # The cache tier composes with the pipeline: a repeat serves the
    # same rules without re-mining.
    engine.enable_cache()
    first = engine.query(query)
    repeat = engine.query(query)
    assert repeat.cached and repeat.rules == first.rules
