"""The Colarm engine facade."""

import time

import pytest

from repro import Colarm, LocalizedQuery, PlanKind
from repro.dataset.synthetic import quest_like
from repro.errors import DataError, QueryError
from tests import oracle
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def engine():
    table = make_random_table(seed=41, n_records=100,
                              cardinalities=(4, 3, 3, 2, 3))
    return Colarm(table, primary_support=0.05)


def test_construction_validates():
    table = make_random_table(seed=1, n_records=10)
    with pytest.raises(DataError):
        Colarm(table, primary_support=0.0)
    with pytest.raises(DataError):
        Colarm(table, primary_support=1.5)


def test_query_with_optimizer(engine):
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.6)
    outcome = engine.query(query)
    assert outcome.chosen_by == "optimizer"
    assert outcome.choice is not None
    assert outcome.plan is outcome.choice.kind
    assert outcome.n_rules == len(outcome.rules)
    assert outcome.elapsed > 0
    assert outcome.dq_size > 0


def test_query_with_forced_plan(engine):
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.6)
    for plan in (PlanKind.ARM, "SS-E-U-V", "sev"):
        outcome = engine.query(query, plan=plan)
        assert outcome.chosen_by == "forced"
        assert outcome.choice is None


def test_query_from_text(engine):
    text = (
        "REPORT LOCALIZED ASSOCIATION RULES FROM t "
        "WHERE RANGE a0 = (v1) "
        "HAVING minsupport = 0.3 AND minconfidence = 0.6;"
    )
    outcome = engine.query(text)
    structured = engine.query(LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
                              plan=outcome.plan)
    key = lambda rs: [(r.antecedent, r.consequent) for r in rs]
    assert key(outcome.rules) == key(structured.rules)


def test_compare_plans_runs_all_six(engine):
    query = LocalizedQuery({0: frozenset({1, 2})}, 0.35, 0.7)
    results = engine.compare_plans(query)
    assert set(results) == set(PlanKind)
    key = lambda rs: sorted((r.antecedent, r.consequent) for r in rs)
    mip = [k for k in PlanKind if k is not PlanKind.ARM]
    base = key(results[mip[0]].rules)
    for kind in mip[1:]:
        assert key(results[kind].rules) == base


def test_choose_plan_without_execution(engine):
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.6)
    choice = engine.choose_plan(query)
    assert choice.kind in PlanKind


def test_calibrate_updates_optimizer(engine):
    before = engine.optimizer.weights
    report = engine.calibrate(n_probes=3, seed=5)
    assert engine.optimizer.weights is report.weights
    assert report.n_runs == 9  # three probe legs per probe


@pytest.mark.parametrize("calibrate_first", [True, False])
def test_calibrate_and_enable_maintenance_commute(calibrate_first):
    """Either call order ends with the probe-fitted weights in force."""
    table = make_random_table(seed=41, n_records=100,
                              cardinalities=(4, 3, 3, 2, 3))
    engine = Colarm(table, primary_support=0.05)
    if calibrate_first:
        report = engine.calibrate(n_probes=3, seed=5)
        engine.enable_maintenance()
    else:
        engine.enable_maintenance()
        report = engine.calibrate(n_probes=3, seed=5)
    assert engine.optimizer.weights is report.weights


def test_global_rules(engine):
    rules = engine.global_rules(minsupp=0.3, minconf=0.5)
    table = engine.table
    for rule in rules:
        count = table.support_count(rule.items)
        assert count / table.n_records >= 0.3
        assert count / table.support_count(rule.antecedent) >= 0.5


def test_global_rules_count_pending_appends_and_deletes():
    """The whole live table's SS-VS answer: appends and deletes not yet
    folded count, as they do for ``query``."""
    engine = Colarm(quest_like(n_records=200, seed=17), primary_support=0.1)
    engine.enable_maintenance(max_delta_fraction=0.9)  # nothing folds
    engine.append(quest_like(n_records=60, seed=18).data.tolist())
    engine.delete(list(range(0, 200, 5)))
    everything = LocalizedQuery({}, 0.08, 0.5)
    fresh = engine.query(everything, plan="SS-VS", use_cache=False).rules
    assert engine.maintenance.n_pending == 100
    assert list(engine.global_rules(0.08, 0.5)) == list(fresh)


ORACLE_QUERIES = (
    LocalizedQuery({0: frozenset({1, 2})}, 0.3, 0.6),
    LocalizedQuery({}, 0.2, 0.5),
    LocalizedQuery({2: frozenset({1})}, 0.25, 0.4),
)


@pytest.mark.parametrize("expand", [False, True], ids=["closed", "expanded"])
def test_a_fresh_engine_ingests_folds_and_answers_as_the_oracle(expand):
    """A freshly built engine — no ``enable_maintenance()`` — takes
    appends and deletes, installs a background fold and a ``fold()``, and
    every plan answers as the oracle does over the live rows throughout.
    Each install leaves the optimizer on the new index's statistics and
    the cache empty."""
    cards = (4, 3, 3, 2)
    table = make_random_table(seed=151, n_records=40, cardinalities=cards)
    engine = Colarm(table, primary_support=0.05, expand=expand)
    engine.enable_cache()
    rows = {tid: tuple(row) for tid, row in enumerate(table.data.tolist())}
    stored = list(rows.values())
    appended: set[int] = set()  # live appended tids

    def mutate(new_rows, dead):
        first = len(stored) + engine.maintenance.buffer.n_rows
        engine.append([list(row) for row in new_rows])
        for tid, row in enumerate(new_rows, start=first):
            rows[tid] = row
            appended.add(tid)
        if dead:
            engine.delete(dead)
        for tid in dead:
            del rows[tid]
            appended.discard(tid)

    def installed():
        # A fold keeps the live rows in tid order, main before delta.
        nonlocal stored
        stored = list(rows.values())
        rows.clear()
        rows.update(enumerate(stored))
        appended.clear()
        assert len(engine.cache) == 0
        assert engine.optimizer.cost_model.stats is engine.index.stats

    def check():
        live = list(rows.values())
        assert engine.maintenance.n_records == len(live)
        for query in ORACLE_QUERIES:
            dq = oracle.focal_rows(live, query)
            n_delta = len(oracle.focal_rows([rows[t] for t in appended], query))
            want = {
                "arm": oracle.arm_rules(live, query, expand),
                "mip": oracle.mip_rules(stored, 0.05, live, n_delta, query,
                                        expand),
            }
            planned = engine.query(query)  # populates the cache
            family = "arm" if planned.plan is PlanKind.ARM else "mip"
            assert [tuple(r) for r in planned.rules] == want[family]
            for kind in PlanKind:
                out = engine.query(query, plan=kind, use_cache=False)
                family = "arm" if kind is PlanKind.ARM else "mip"
                assert out.dq_size == len(dq)
                assert [tuple(r) for r in out.rules] == want[family], kind
        assert len(engine.cache) > 0

    check()
    # Four mutations of 40 rows: the default fold bound (10 %) is not due.
    mutate([(1, 0, 1, 0), (2, 1, 1, 1)], [3, 17])
    assert not engine.maintenance.recompacting
    check()
    mutate([(1, 2, 0, 1), (1, 0, 1, 0)], [])  # past the bound: it folds
    assert engine.maintenance.recompacting
    deadline = time.monotonic() + 30
    while not engine.poll_maintenance():
        assert time.monotonic() < deadline
        time.sleep(0.01)
    installed()
    check()
    mutate([(2, 2, 2, 1), (0, 1, 2, 0)], [0, len(stored)])  # not due
    assert not engine.maintenance.recompacting
    check()
    assert engine.fold()
    installed()
    check()


def test_engine_introspection(engine):
    assert engine.n_mips == len(engine.index.stats.mip_fixed_values)
    assert engine.schema is engine.table.schema


def test_bad_query_raises(engine):
    with pytest.raises(QueryError):
        engine.query(LocalizedQuery({99: frozenset({0})}, 0.3, 0.5))
