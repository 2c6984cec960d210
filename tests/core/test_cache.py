"""The materialized rule cache: unit policy and engine integration.

Three layers of coverage:

* :class:`repro.cache.RuleCache` in isolation — keys, tiers, LRU +
  landmark eviction, generation invalidation, the stats ledger;
* the engine path — ``enable_cache``/``query`` serving repeats byte-
  identically, lattice hits replaying at a new ``minconf``, forced plans,
  the ``use_cache`` bypass;
* one probe per request, a hit served without pricing, and the cache's
  own lock under a thread hammer.
"""

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro.cache import ARM_FAMILY, MIP_FAMILY, CachedLattice, RuleCache
from repro.core.engine import Colarm
from repro.core.mipindex import build_mip_index
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.itemsets.rules import RuleBlock
from repro.serving import QueryService
from tests.conftest import make_random_table

MIP_PLANS = (PlanKind.SEV, PlanKind.SVS, PlanKind.SSEV, PlanKind.SSVS,
             PlanKind.SSEUV)


@pytest.fixture(scope="module")
def index():
    table = make_random_table(seed=71, n_records=120,
                              cardinalities=(4, 3, 3, 2, 3))
    return build_mip_index(table, primary_support=0.05)


@pytest.fixture()
def engine(index):
    return Colarm.from_index(index)


def q(selections, minsupp=0.3, minconf=0.6, aitem=None):
    return LocalizedQuery(
        {ai: frozenset(vs) for ai, vs in selections.items()},
        minsupp, minconf, item_attributes=aitem,
    )


# -- unit: keys, tiers, policy ------------------------------------------------


def test_put_get_rules_roundtrip(index):
    cache = RuleCache(index)
    query = q({0: {1}})
    rules = execute_plan(PlanKind.SSVS, index, query).rules
    assert cache.put_rules(query, rules, 7)
    served = cache.get_rules(query)
    assert served == rules
    # The entry itself is handed out, no copy: a block cannot be changed.
    assert served is rules
    for column in (served.src, served.ant_mask, served.support_count,
                   served.support, served.confidence):
        assert not column.flags.writeable
    assert not hasattr(served, "append")
    # Family separation: the ARM tier is distinct.
    assert cache.get_rules(query, ARM_FAMILY) is None


def test_rules_entry_accounts_its_columns_real_bytes(index):
    cache = RuleCache(index)
    query = q({0: {1}})
    rules = execute_plan(PlanKind.SSVS, index, query).rules
    assert isinstance(rules, RuleBlock) and len(rules)
    cache.put_rules(query, rules, 7)
    (entry,) = cache._entries.values()
    assert entry.payload is rules
    assert entry.nbytes == cache.stats.current_bytes
    assert rules.nbytes == 32 * len(rules)  # 32 B a rule ...
    assert 0 < entry.nbytes - rules.nbytes <= 512  # ... plus the entry itself


def test_probe_preference_and_no_lru_bump(index):
    cache = RuleCache(index)
    query = q({0: {1}})
    result = execute_plan(PlanKind.SSVS, index, query)
    lattice = CachedLattice(
        groups=tuple(result.lattice_groups),
        dq_size=result.dq_size,
        extract_min_count=None,
        schema=index.table.schema,
    )
    assert cache.put_lattice(query, lattice)
    probe = cache.probe(query)
    assert probe.kind == "lattice" and probe.dq_size == result.dq_size
    arm = execute_plan(PlanKind.ARM, index, query)
    cache.put_rules(query, arm.rules, arm.dq_size, family=ARM_FAMILY)
    assert cache.probe(query).families == (ARM_FAMILY,)
    cache.put_rules(query, result.rules, result.dq_size)
    probe = cache.probe(query)
    assert probe.kind == "rules" and probe.families == (MIP_FAMILY, ARM_FAMILY)
    assert probe.dq_size == result.dq_size
    # Probes never count as serves.
    assert cache.stats.rule_hits == 0 and cache.stats.lattice_hits == 0
    assert cache.probe(q({0: {2}})).kind is None
    assert cache.stats.misses == 1


def test_replayed_lattice_is_read_only(index):
    """Every array of a cached lattice is shared by every replay: none of
    them — source ids, counts or order — can be written to."""
    cache = RuleCache(index)
    query = q({0: {1}})
    result = execute_plan(PlanKind.SSVS, index, query)
    assert cache.put_lattice(query, CachedLattice(
        groups=tuple(result.lattice_groups),
        dq_size=result.dq_size,
        extract_min_count=None,
        schema=index.table.schema,
    ))
    replayed = cache.get_lattice(query)
    assert replayed.groups
    for group in replayed.groups:
        assert len(group) == 3
        for array in group:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1
    assert replayed.extract(query.minconf) == result.rules


def test_focal_key_drops_full_domain_selections(index):
    cache = RuleCache(index)
    cards = index.cardinalities
    spelled = q({0: {1}, 1: set(range(cards[1]))})
    implicit = q({0: {1}})
    assert cache.focal_key(spelled) == cache.focal_key(implicit)
    rules = execute_plan(PlanKind.SSVS, index, implicit).rules
    cache.put_rules(spelled, rules, 7)
    assert cache.get_rules(implicit) == rules


def test_lru_eviction_with_landmark_protection(index):
    queries = [q({0: {1}}, minconf=0.5 + i / 100) for i in range(4)]
    rules = execute_plan(PlanKind.SSVS, index, queries[0]).rules
    cache = RuleCache(index, budget_bytes=1 << 30, landmark_hits=2)
    cache.put_rules(queries[0], rules, 7)
    per_entry = cache.stats.current_bytes
    # Room for exactly two entries; entry 0 is made a landmark.
    cache = RuleCache(index, budget_bytes=2 * per_entry, landmark_hits=2)
    cache.put_rules(queries[0], rules, 7)
    for _ in range(2):
        assert cache.get_rules(queries[0]) is not None
    cache.put_rules(queries[1], rules, 7)
    cache.put_rules(queries[2], rules, 7)  # evicts 1 (cold LRU), never 0
    assert cache.get_rules(queries[1]) is None
    assert cache.get_rules(queries[0]) is not None
    assert cache.stats.evictions == 1
    assert cache.stats.current_bytes <= cache.budget_bytes
    # With only landmarks left, LRU order applies to them after all.
    for _ in range(2):
        cache.get_rules(queries[2])
    cache.put_rules(queries[3], rules, 7)
    assert len(cache) == 2
    assert cache.stats.current_bytes <= cache.budget_bytes


def test_oversized_entry_rejected(index):
    query = q({0: {1}})
    rules = execute_plan(PlanKind.SSVS, index, query).rules
    cache = RuleCache(index, budget_bytes=64)
    assert not cache.put_rules(query, rules, 7)
    assert cache.stats.rejected == 1 and len(cache) == 0


def test_generation_invalidation(index):
    cache = RuleCache(index)
    query = q({0: {1}})
    rules = execute_plan(PlanKind.SSVS, index, query).rules
    cache.put_rules(query, rules, 7)
    index.bump_generation()
    try:
        assert cache.probe(query).kind is None
        assert cache.stats.stale_drops == 1
        assert cache.stats.current_bytes == 0
        # A stale pre-mutation snapshot is refused at insert time too.
        assert not cache.put_rules(
            query, rules, 7, generation=index.generation - 1
        )
        assert cache.stats.stale_drops == 2
        # A current-generation insert works again.
        assert cache.put_rules(query, rules, 7, generation=index.generation)
        assert cache.get_rules(query) == rules
    finally:
        index.clock.ticks -= 1  # the fixture is shared


def test_invalidate_clears_everything(index):
    cache = RuleCache(index)
    query = q({0: {1}})
    rules = execute_plan(PlanKind.SSVS, index, query).rules
    cache.put_rules(query, rules, 7)
    cache.put_rules(query, rules, 7, family=ARM_FAMILY)
    assert cache.invalidate() == 2
    assert len(cache) == 0 and cache.stats.current_bytes == 0
    stats = cache.stats.as_dict()
    assert stats["insertions"] == 2 and stats["stale_drops"] == 2


def test_constructor_validation(index):
    with pytest.raises(ValueError):
        RuleCache(index, budget_bytes=0)
    with pytest.raises(ValueError):
        RuleCache(index, landmark_hits=0)
    cache = RuleCache(index)
    with pytest.raises(ValueError):
        cache.put_rules(q({0: {1}}), [], 7, family="nope")


def test_thread_hammer_keeps_accounting_and_generations(index):
    """Concurrent probe / serve / put / invalidate / rebind under a budget
    of a few entries: every counter update happens under the cache lock
    (none is lost), the byte ledger matches the entries, and no serve
    ever hands out an entry stamped with another generation."""
    other = build_mip_index(index.table, primary_support=0.05)
    base = index.clock.base
    queries = [q({0: {1}}, minconf=0.5 + i / 100) for i in range(12)]
    template = execute_plan(PlanKind.SSVS, index, queries[0]).rules[:6]
    assert template
    sizing = RuleCache(index, budget_bytes=1 << 30)
    sizing.put_rules(queries[0], template, 7)
    cache = RuleCache(index, budget_bytes=3 * sizing.stats.current_bytes)
    rounds, n_readers, n_writers = 2500, 5, 3
    probes = [0] * n_readers
    problems: list[str] = []

    def tagged(generation):
        return RuleBlock(
            template.sources, template.src, template.ant_mask,
            np.full(len(template), generation),
            template.support, template.confidence,
        )

    def check(served, before, after):
        tags = {rule.support_count for rule in served}
        if len(tags) != 1 or not before <= tags.pop() <= after:
            problems.append(f"served {tags} outside [{before}, {after}]")

    def reader(slot):
        for i in range(rounds):
            query = queries[(i + slot) % len(queries)]
            before = cache.generation()
            if i % 3:
                probes[slot] += 1
                found = cache.probe(query).kind == "rules"
                served = cache.get_rules(query) if found else None
            else:
                served = cache.get_rules(query)
            if served is not None:
                check(served, before, cache.generation())

    def writer(slot):
        for i in range(rounds):
            generation = cache.generation()
            cache.put_rules(queries[(i * 5 + slot) % len(queries)],
                            tagged(generation), 7, generation=generation)
            if slot == 0 and i % 40 == 39:
                cache.index.bump_generation()
            if slot == 1 and i % 97 == 96:
                cache.invalidate()
            if slot == 2 and i % 131 == 130:
                # As a fold does: the replacement's clock starts past the
                # old index's.
                new = other if cache.index is index else index
                new.clock.base += cache.generation() + 1 - new.generation
                cache.rebind_index(new)

    def guarded(work, slot):
        try:
            work(slot)
        except Exception as exc:  # noqa: BLE001 — reported by the test
            problems.append(f"{work.__name__} {slot}: {exc!r}")

    threads = [threading.Thread(target=guarded, args=(reader, i))
               for i in range(n_readers)]
    threads += [threading.Thread(target=guarded, args=(writer, i))
                for i in range(n_writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
        index.clock.base = base
    assert not any(thread.is_alive() for thread in threads)
    assert not problems, problems[:3]
    assert cache.stats.probes == sum(probes)
    assert cache.stats.current_bytes == sum(
        entry.nbytes for entry in cache._entries.values()
    )
    assert cache.stats.current_bytes <= cache.budget_bytes


# -- engine integration -------------------------------------------------------


def test_repeat_query_served_from_cache(engine):
    engine.enable_cache()
    query = q({0: {1, 2}})
    first = engine.query(query)
    assert not first.cached and first.choice is not None
    second = engine.query(query)
    assert second.cached
    assert second.rules == first.rules
    assert second.chosen_by == "optimizer" and second.choice is None
    assert second.plan in (PlanKind.SSVS, PlanKind.ARM)
    assert (second.plan is PlanKind.ARM) == (first.plan is PlanKind.ARM)
    assert second.dq_size == first.dq_size
    assert engine.cache.stats.rule_hits == 1


def _spy(engine, monkeypatch, evict_after_probe=False):
    """Count cache probes, profiles and pricings; optionally empty the
    cache right after each probe (an eviction between probe and serve)."""
    calls = {"probe": 0, "profile_for": 0, "choose": 0}

    def counted(owner, name, after=None):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            out = real(*args, **kwargs)
            if after is not None:
                after()
            return out

        monkeypatch.setattr(owner, name, spy)

    counted(engine.cache, "probe",
            engine.cache.invalidate if evict_after_probe else None)
    counted(engine.optimizer, "profile_for")
    counted(engine.optimizer, "choose")
    return calls


def test_every_request_probes_once_and_a_hit_is_not_priced(engine,
                                                          monkeypatch):
    """Optimizer-planned, forced and service requests each make exactly one
    cache probe; a request served from either tier neither profiles nor
    prices; an entry evicted between probe and serve is priced and
    executed fresh, without a second probe."""
    engine.enable_cache()
    calls = _spy(engine, monkeypatch)

    def ask(request, plan=None):
        for name in calls:
            calls[name] = 0
        outcome = engine.query(request, plan=plan)
        return outcome, dict(calls)

    priced = {"probe": 1, "profile_for": 1, "choose": 1}
    unpriced = {"probe": 1, "profile_for": 0, "choose": 0}
    miss, seen = ask(q({0: {1, 2}}))
    assert not miss.cached and seen == priced
    hit, seen = ask(q({0: {1, 2}}))
    assert hit.cached and seen == unpriced and hit.rules == miss.rules

    region = q({1: {0, 1}}, minconf=0.6)
    forced, seen = ask(region, plan=PlanKind.SSVS)
    assert not forced.cached and seen == unpriced
    replay, seen = ask(q({1: {0, 1}}, minconf=0.8))  # the lattice tier
    assert replay.cached and seen == unpriced
    assert replay.plan is PlanKind.SSVS
    assert engine.cache.stats.lattice_hits == 1
    assert replay.rules == execute_plan(
        PlanKind.SSVS, engine.index, q({1: {0, 1}}, minconf=0.8)
    ).rules
    again, seen = ask(region, plan=PlanKind.SVS)
    assert again.cached and seen == unpriced and again.plan is PlanKind.SVS
    other, seen = ask(region, plan=PlanKind.ARM)  # not its family's entry
    assert not other.cached and seen == unpriced

    keys = [q({2: {0}}), q({2: {0}}), region]

    async def serve():
        async with QueryService(engine) as service:
            out = []
            for query, plan in zip(keys, (None, None, PlanKind.ARM)):
                for name in calls:
                    calls[name] = 0
                out.append((await service.submit(query, plan=plan),
                            dict(calls)))
            return out

    (first, seen_miss), (repeat, seen_hit), (arm, seen_forced) = \
        asyncio.run(serve())
    assert not first.cached and seen_miss == priced
    assert repeat.cached and seen_hit == unpriced
    assert arm.cached and seen_forced == unpriced

    monkeypatch.undo()
    calls = _spy(engine, monkeypatch, evict_after_probe=True)
    evicted, seen = ask(q({0: {1, 2}}))
    assert not evicted.cached and seen == priced
    assert evicted.rules == miss.rules


def test_lattice_hit_replays_at_new_minconf(engine):
    engine.enable_cache()
    base = q({1: {0, 1}}, minsupp=0.3, minconf=0.6)
    engine.query(base, plan=PlanKind.SSVS)  # populates rules + lattice
    assert engine.cache.entries_by_kind()["lattice"] == 1
    shifted = q({1: {0, 1}}, minsupp=0.3, minconf=0.8)
    outcome = engine.query(shifted)
    assert outcome.cached and outcome.plan is PlanKind.SSVS
    assert engine.cache.stats.lattice_hits == 1
    fresh = execute_plan(PlanKind.SSVS, engine.index, shifted)
    assert outcome.rules == fresh.rules
    assert outcome.dq_size == fresh.dq_size
    # The extraction upgraded to a full rules hit for the next repeat.
    assert engine.cache.probe(shifted).kind == "rules"


def test_forced_plan_uses_own_family(engine):
    engine.enable_cache()
    query = q({0: {1, 2}}, minconf=0.7)
    mip = engine.query(query, plan=PlanKind.SSEUV)
    arm = engine.query(query, plan=PlanKind.ARM)
    assert not mip.cached and not arm.cached
    mip2 = engine.query(query, plan=PlanKind.SVS)  # any MIP plan shares
    arm2 = engine.query(query, plan=PlanKind.ARM)
    assert mip2.cached and mip2.rules == mip.rules
    assert arm2.cached and arm2.rules == arm.rules


def test_use_cache_false_bypasses_consult_and_populate(engine):
    engine.enable_cache()
    query = q({0: {1, 2}})
    engine.query(query, use_cache=False)
    assert len(engine.cache) == 0
    engine.query(query)
    repeat = engine.query(query, use_cache=False)
    assert not repeat.cached


def test_disable_cache_detaches(engine):
    engine.enable_cache()
    query = q({0: {1, 2}})
    engine.query(query)
    engine.disable_cache()
    assert engine.cache is None
    assert not engine.query(query).cached
