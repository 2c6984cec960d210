"""Self-tests of the end-to-end benchmark, at ``--smoke`` sizes.

    python -m pytest benchmarks/e2e -q

Not part of the tier-1 suite (``testpaths = ["tests"]``): these run the
benchmark itself, end to end, in under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
from repro.core.engine import Colarm  # noqa: E402
from workloads import SMOKE, WHY, WORKLOADS, generate  # noqa: E402

SECONDS = 1.0


def _run(name: str, trace: int, seed: int = 1, corrupt: bool = False) -> dict:
    return run.run_once(name, seed, SECONDS, trace, SMOKE, corrupt=corrupt,
                        quiet=True)


@pytest.fixture()
def default_weights(monkeypatch):
    """Skip the timing-based calibration: with the default cost weights the
    optimizer's picks — hence answers and work counts — are a pure function
    of the inputs, which is what the determinism tests are about."""
    monkeypatch.setattr(Colarm, "calibrate", lambda self, *a, **k: None)


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == metrics.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name, capsys):
    for trace, catalogue in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        record = _run(name, trace)
        assert record["failed"] == 0, record["problems"]
        line = json.loads(run.contract_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert list(line["metrics"]) == [m[0] for m in catalogue]
        for metric, unit, *_ in catalogue:
            assert line["metrics"][metric]["unit"] == unit
        printed = catalogue
        if not trace:
            assert all(m["value"] > 0 for m in line["metrics"].values())
            assert record["error_rate"] == 0.0
            ingests = name in ("ingest_mixed", "wide_cluster")
            assert (record["ingest_rows_per_s"] is not None) == ingests
            printed = catalogue + metrics.UNBOUNDED
        run.report(record)
        rows = [row.split() for row in capsys.readouterr().out.splitlines()]
        for metric, unit, *_ in printed:
            assert [name, metric, unit] in [[*row[:2], row[3]] for row in rows
                                            if len(row) >= 4]


def test_same_seed_same_inputs_answers_and_counts(default_weights):
    first, second = _run("fresh_grid", 1), _run("fresh_grid", 1)
    assert first["fingerprint"] == second["fingerprint"]
    assert first["result_digest"] == second["result_digest"]
    for count in metrics.EXACT_COUNTS:
        assert first["values"][count] == second["values"][count] > 0


def test_ingest_answers_do_not_depend_on_fold_timing(default_weights):
    first, second = _run("ingest_mixed", 0), _run("ingest_mixed", 0)
    assert first["failed"] == second["failed"] == 0
    assert first["result_digest"] == second["result_digest"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_another_seed_is_another_op_list(name):
    a, b = (generate(name, seed, SECONDS, SMOKE) for seed in (1, 2))
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == generate(name, 1, SECONDS, SMOKE).fingerprint()
    assert a.n_queries == b.n_queries


def test_peak_rss_is_the_runs_own(tmp_path):
    """``ru_maxrss`` never falls: a run must not inherit the high-water mark
    of the run before it (``run.py`` gives each its own process)."""
    def peaks(*names: str) -> dict[str, float]:
        out = tmp_path / "runs.json"
        command = [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds",
                   str(SECONDS), "--trace", "0", "--out", str(out)]
        for name in names:
            command += ["--workload", name]
        subprocess.run(command, check=True, capture_output=True, timeout=120)
        return {r["workload"]: r["values"]["peak_rss_mb"]
                for r in json.loads(out.read_text())["runs"]}

    alone = peaks("fresh_grid")["fresh_grid"]
    together = peaks("wide_cluster", "fresh_grid")
    assert together["wide_cluster"] > 1.3 * alone
    assert together["fresh_grid"] == pytest.approx(alone, rel=0.1)


def test_a_corrupted_answer_is_counted_as_a_failure():
    record = _run("fresh_grid", 0, corrupt=True)
    assert record["failed"] > 0 and record["error_rate"] > 0
    assert json.loads(run.contract_line(record))["correct"] is False


def test_the_trace_accounts_for_the_wall_time():
    record = _run("fresh_grid", 1)
    assert record["values"]["trace.coverage"] >= 0.9
    assert record["values"]["trace.overhead_ratio"] > 0
