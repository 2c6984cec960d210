"""RuleBlock: the columnar rule list behaves as an immutable list[Rule]."""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.dataset.schema import Item
from repro.errors import DataError
from repro.itemsets.rules import Rule, RuleBlock
from tests import oracle
from tests.conftest import make_random_table, rows_of

COLUMNS = ("src", "ant_mask", "support_count", "support", "confidence")


@pytest.fixture(scope="module")
def rules() -> list[Rule]:
    """A few hundred real rules of mixed widths, in canonical order."""
    table = make_random_table(3, n_records=60)
    itemsets = [
        (Item(0, a), Item(1, b), Item(2, c), Item(3, d))[:width]
        for a in range(2) for b in range(2) for c in range(2)
        for d in range(2) for width in (2, 3, 4)
    ]
    out = [Rule(*r) for r in oracle.rules_from(itemsets, rows_of(table), 0.0)]
    assert len(out) > 100
    return out


@pytest.fixture(scope="module")
def block(rules) -> RuleBlock:
    return RuleBlock.from_rules(rules)


def test_empty_block():
    empty = RuleBlock.from_rules(())
    assert len(empty) == 0 and not empty
    assert list(empty) == [] and empty == [] and [] == empty
    assert empty[:3] == [] and empty.nbytes == 0
    assert pickle.loads(pickle.dumps(empty)) == empty
    with pytest.raises(IndexError):
        empty[0]


def test_block_lists_the_rules_field_for_field(rules, block):
    assert len(block) == len(rules)
    assert list(block) == rules
    assert all(type(r) is Rule for r in block)
    assert [block[i] for i in range(len(rules))] == rules
    # Every source itemset is referenced, and only once listed.
    assert sorted(set(block.src.tolist())) == list(range(len(block.sources)))
    assert len(set(block.sources)) == len(block.sources)


def test_equality_both_ways_against_a_list(rules, block):
    assert block == rules and rules == block
    assert block == tuple(rules) and block == RuleBlock.from_rules(rules)
    assert not block != rules
    assert block != rules[:-1] and rules[1:] != block
    changed = list(rules)
    changed[5] = changed[5]._replace(support_count=changed[5].support_count + 1)
    assert block != changed and changed != block
    assert block != 7 and block != None  # noqa: E711 — __eq__ declines
    with pytest.raises(TypeError):
        hash(block)


def test_negative_index_and_slices(rules, block):
    assert block[-1] == rules[-1] and block[-len(rules)] == rules[0]
    for bad in (len(rules), -len(rules) - 1):
        with pytest.raises(IndexError):
            block[bad]
    for s in (slice(None, 10), slice(-7, None), slice(3, 90, 4),
              slice(None, None, -1), slice(50, 20), slice(None, -1)):
        part = block[s]
        assert isinstance(part, RuleBlock)
        assert part == rules[s] and list(part) == rules[s]
    assert rules[4] in block and block.index(rules[4]) == 4
    assert block.count(rules[4]) == 1


def test_from_rules_round_trips_the_order_given(rules, block):
    assert RuleBlock.from_rules(list(block)) == block
    backwards = RuleBlock.from_rules(rules[::-1])
    assert list(backwards) == rules[::-1]
    with pytest.raises(DataError):
        wide = tuple(Item(a, 0) for a in range(32))
        RuleBlock.from_rules([Rule(wide[:1], wide[1:], 1, 0.5, 0.5)])


def test_nbytes_is_the_columns(block):
    assert block.nbytes == sum(getattr(block, c).nbytes for c in COLUMNS)
    assert block.nbytes == 32 * len(block)


def test_columns_are_read_only(block):
    """A consumer cannot corrupt a block it was handed (the cache hands out
    the entry itself)."""
    clones = (block, block[10:20], pickle.loads(pickle.dumps(block)),
              RuleBlock.unpack(*block.pack()))
    for b in clones:
        for name in COLUMNS:
            column = getattr(b, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
            with pytest.raises(ValueError):
                column.fill(0)
        with pytest.raises(AttributeError):
            b.extra = 1
    with pytest.raises(TypeError):
        block[0] = block[1]
    assert not hasattr(block, "append") and not hasattr(block, "sort")


def test_pack_ships_only_the_sources_a_slice_references(block):
    part = block[:5]
    assert len(part.sources) == len(block.sources)
    body, n_rules, n_sources = part.pack()
    assert n_rules == 5 and n_sources == len(set(part.src.tolist()))
    assert len(body) < len(block.pack()[0]) // 10
    rebuilt = RuleBlock.unpack(body, n_rules, n_sources)
    assert rebuilt == part and len(rebuilt.sources) == n_sources


def test_unpack_refuses_a_buffer_of_the_wrong_size(block):
    body, n_rules, n_sources = block.pack()
    for bad in (body[:-1], body[:-8], body + b"\0" * 4, b""):
        with pytest.raises(DataError):
            RuleBlock.unpack(bad, n_rules, n_sources)
    with pytest.raises(DataError):
        RuleBlock.unpack(body, n_rules - 1, n_sources)
    with pytest.raises(DataError):
        RuleBlock.unpack(body, n_rules, n_sources + 2)
    # Right size, but a rule pointing past the sources.
    broken = bytearray(body)
    at = len(body) - 4 * (2 * n_rules + n_sources)
    broken[at:at + 4] = np.int32(n_sources).tobytes()
    with pytest.raises(DataError):
        RuleBlock.unpack(bytes(broken), n_rules, n_sources)
    # ... or splitting off no antecedent at all.
    broken = bytearray(body)
    at += 4 * n_rules
    broken[at:at + 4] = np.int32(0).tobytes()
    with pytest.raises(DataError):
        RuleBlock.unpack(bytes(broken), n_rules, n_sources)


def test_unpacked_items_are_interned(block):
    a = RuleBlock.unpack(*block.pack())
    b = pickle.loads(pickle.dumps(block))
    assert a == b == block
    assert all(
        x is y
        for s, t in zip(a.sources, b.sources) for x, y in zip(s, t)
    )
    assert all(type(item) is Item for s in a.sources for item in s)


def _echo(conn):
    conn.send(conn.recv())
    conn.close()


def test_pickle_round_trip_through_a_real_pipe(rules, block):
    parent, child = multiprocessing.Pipe()
    worker = multiprocessing.get_context("fork").Process(
        target=_echo, args=(child,)
    )
    worker.start()
    try:
        parent.send(("ok", 7, {"rules": block}))
        tag, req_id, payload = parent.recv()
    finally:
        worker.join(timeout=10)
    got = payload["rules"]
    assert (tag, req_id) == ("ok", 7)
    assert isinstance(got, RuleBlock) and got == block and list(got) == rules
    # One buffer on the wire: 32 bytes a rule plus the item ids.
    assert len(pickle.dumps(block)) < 32 * len(block) + 16 * sum(
        len(s) for s in block.sources
    ) + 200
