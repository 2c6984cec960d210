"""The colarm command-line interface, end to end through main()."""

import json

import pytest

from repro.cli import main
from repro.dataset.loaders import save_csv
from repro.dataset.synthetic import quest_like

QUERY = (
    "REPORT LOCALIZED ASSOCIATION RULES FROM d "
    "WHERE RANGE region = (north) "
    "HAVING minsupport = 0.3 AND minconfidence = 0.7;"
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    csv_path = root / "data.csv"
    save_csv(quest_like(n_records=250, n_categories=4, seed=3), csv_path)
    index_path = root / "data.colarm.npz"
    code = main([
        "build", str(csv_path), str(index_path),
        "--primary-support", "0.05", "--calibrate", "3",
    ])
    assert code == 0
    return csv_path, index_path


def test_build_output(workspace, capsys):
    # The build in the fixture already ran; rebuild to capture its message.
    csv_path, index_path = workspace
    code = main(["build", str(csv_path), str(index_path),
                 "--primary-support", "0.05"])
    captured = capsys.readouterr()
    assert code == 0
    assert "closed frequent itemsets" in captured.out


def test_info(workspace, capsys):
    _, index_path = workspace
    assert main(["info", str(index_path)]) == 0
    out = capsys.readouterr().out
    assert "records:" in out
    assert "closed itemsets:" in out
    assert "region" in out


def test_query(workspace, capsys):
    _, index_path = workspace
    assert main(["query", str(index_path), QUERY]) == 0
    out = capsys.readouterr().out
    assert "focal subset:" in out
    assert "=>" in out


def test_query_forced_plan_and_expand(workspace, capsys):
    _, index_path = workspace
    assert main([
        "query", str(index_path), QUERY, "--plan", "SS-E-U-V", "--expand",
        "--limit", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "SS-E-U-V (forced)" in out


def test_plans(workspace, capsys):
    _, index_path = workspace
    assert main(["plans", str(index_path), QUERY]) == 0
    out = capsys.readouterr().out
    for plan in ("S-E-V", "S-VS", "SS-E-V", "SS-VS", "SS-E-U-V", "ARM"):
        assert plan in out
    assert "optimizer" in out


def test_explain(workspace, capsys):
    _, index_path = workspace
    assert main(["explain", str(index_path), QUERY]) == 0
    out = capsys.readouterr().out
    assert "chosen" in out


def test_suggest(workspace, capsys):
    _, index_path = workspace
    assert main(["suggest", str(index_path), "--top-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "suggested minsupport" in out
    assert "promising focal subsets" in out


def test_error_paths(tmp_path, capsys):
    missing = tmp_path / "missing.npz"
    assert main(["info", str(missing)]) == 2
    assert "error" in capsys.readouterr().err


def test_query_bad_text(workspace, capsys):
    _, index_path = workspace
    assert main(["query", str(index_path), "SELECT nonsense"]) == 2
    assert "error" in capsys.readouterr().err


def test_simpson(workspace, capsys):
    _, index_path = workspace
    assert main(["simpson", str(index_path), QUERY, "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "EMERGING" in out and "VANISHING" in out
    assert "global conf" in out


def test_rank(workspace, capsys):
    _, index_path = workspace
    assert main(["rank", str(index_path), QUERY, "--measure", "lift",
                 "--top-k", "4"]) == 0
    out = capsys.readouterr().out
    assert "by lift" in out
    assert "=>" in out


def test_rank_unknown_measure(workspace, capsys):
    _, index_path = workspace
    assert main(["rank", str(index_path), QUERY, "--measure", "magic"]) == 2
    assert "error" in capsys.readouterr().err


def test_replay(workspace, tmp_path, capsys):
    _, index_path = workspace
    workload = tmp_path / "workload.txt"
    workload.write_text(f"# comment line\n{QUERY}\n\n{QUERY}\n")
    assert main(["replay", str(index_path), str(workload),
                 "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "[1] plan" in out and "[2] plan" in out
    snapshot = json.loads(out[out.index("\n{") :])  # stats JSON at the end
    assert snapshot["served"] == 2 and "parallel" not in snapshot


@pytest.mark.parametrize("workers", ["1", "2"], ids=["service", "cluster"])
def test_replay_joins_a_duplicated_line(workspace, tmp_path, capsys,
                                        workers):
    """One path with or without ``--workers``: a duplicated line is
    answered twice, identically, the second marked ``coalesced``, and
    the stats show the join; a cluster answer names its worker."""
    _, index_path = workspace
    workload = tmp_path / "dup.txt"
    workload.write_text(f"{QUERY}\n{QUERY}\n")
    assert main(["replay", str(index_path), str(workload),
                 "--workers", workers, "--limit", "1000"]) == 0
    out = capsys.readouterr().out
    body, stats = out[: out.index("\n{")], out[out.index("\n{"):]
    first, second = body.split("[2] ")
    first_head, *first_rules = first.splitlines()
    second_head, *second_rules = second.splitlines()
    assert first_rules == second_rules and first_rules
    assert "coalesced" not in first_head and "coalesced" in second_head
    assert ("worker 0" in first_head) == (workers == "2")
    snapshot = json.loads(stats)
    assert (snapshot["served"], snapshot["coalesced"]) == (2, 1)
    assert snapshot["executions"] == 1


def test_replay_all_failed_exits_nonzero(workspace, tmp_path, capsys):
    _, index_path = workspace
    workload = tmp_path / "w.txt"
    workload.write_text("REPORT garbage;\nREPORT nonsense;\n")
    code = main(["replay", str(index_path), str(workload), "--no-cache"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[1] ParseError:" in out and "[2] ParseError:" in out


@pytest.mark.parametrize("workers", ["1", "2"], ids=["service", "cluster"])
def test_replay_reports_malformed_text_in_place(workspace, tmp_path, capsys,
                                                workers):
    """A line that does not parse is answered with its error, in place;
    the valid lines are still served and the replay exits 0."""
    _, index_path = workspace
    workload = tmp_path / "w.txt"
    workload.write_text(f"{QUERY}\nREPORT garbage;\n{QUERY}\n")
    code = main(["replay", str(index_path), str(workload),
                 "--workers", workers])
    captured = capsys.readouterr()
    assert code == 0
    assert "[2] ParseError:" in captured.out
    assert "[1] " in captured.out and "[3] " in captured.out
    assert "[1] ParseError" not in captured.out
    assert "[3] ParseError" not in captured.out
    assert "never retrieved" not in captured.err


@pytest.mark.parametrize("workers", ["1", "2"], ids=["service", "cluster"])
def test_serve_answers_malformed_text_with_an_error(workspace, capsys,
                                                    monkeypatch, workers):
    import io

    _, index_path = workspace
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(f"{QUERY}\nREPORT garbage;\n{QUERY}\n")
    )
    assert main(["serve", str(index_path), "--workers", workers]) == 0
    captured = capsys.readouterr()
    responses = {
        r["line"]: r
        for r in map(json.loads, captured.out.strip().splitlines())
    }
    assert sorted(responses) == [1, 2, 3]
    assert responses[1]["ok"] and responses[3]["ok"]
    assert not responses[2]["ok"]
    assert responses[2]["error"] == "ParseError"
    assert "garbage" in responses[2]["message"]
    assert "never retrieved" not in captured.err
    snapshot = json.loads(captured.err.strip().splitlines()[-1])
    assert snapshot["submitted"] == 3
    assert snapshot["served"] == 2 and snapshot["errors"] == 1
    assert ("routing" in snapshot) == (workers == "2")
    assert ("worker" in responses[1]) == (workers == "2")


def test_replay_empty_workload(workspace, tmp_path, capsys):
    _, index_path = workspace
    workload = tmp_path / "empty.txt"
    workload.write_text("# only comments\n\n")
    assert main(["replay", str(index_path), str(workload)]) == 2
    assert "empty workload" in capsys.readouterr().err


def test_serve_stdin_loop(workspace, capsys, monkeypatch):
    import io

    _, index_path = workspace
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(f"{QUERY}\n# note\n{QUERY}\n")
    )
    assert main(["serve", str(index_path), "--workers", "1"]) == 0
    captured = capsys.readouterr()
    responses = [json.loads(line)
                 for line in captured.out.strip().splitlines()]
    assert len(responses) == 2
    assert all(r["ok"] for r in responses)
    assert {r["line"] for r in responses} == {1, 2}
    assert all("rules" in r for r in responses)
    assert all(set(r["trace"]) == {
        "queue_wait_s", "execute_s", "total_s",
        "coalesced", "leader", "plan", "cached", "generation",
    } for r in responses)
    snapshot = json.loads(captured.err.strip().splitlines()[-1])
    assert snapshot["served"] == 2 and "parallel" not in snapshot


def _ssvs_answer(index_path, capsys):
    """``colarm query`` forced to SS-VS: the focal/plan/rule-count head
    without its timing, and every rule line."""
    capsys.readouterr()
    assert main(["query", str(index_path), QUERY, "--plan", "SS-VS",
                 "--limit", "100000"]) == 0
    head, *rules = capsys.readouterr().out.splitlines()
    return head.rsplit(" in ", 1)[0], rules


def test_ingest_folds_mid_stream_and_answers_as_a_full_build(tmp_path,
                                                             capsys):
    """``colarm ingest`` with a delta bound small enough that a fold starts
    mid-stream: the output answers as an index built over all the rows
    does, and so does a second ingest onto it, which reads the sidecar
    saved next to it."""
    from repro.core.persistence import delta_sidecar_path
    from repro.dataset.table import RelationalTable

    table = quest_like(n_records=300, n_categories=4, seed=5)

    def csv_of(name, lo, hi):
        path = tmp_path / f"{name}.csv"
        save_csv(RelationalTable(table.schema, table.data[lo:hi]), path)
        return path

    def built_over(name, hi):
        path = tmp_path / f"{name}.colarm.npz"
        assert main(["build", str(csv_of(name, 0, hi)), str(path),
                     "--primary-support", "0.05"]) == 0
        return path

    base = built_over("base", 200)
    out = tmp_path / "ingested.colarm.npz"
    assert main(["ingest", str(base), str(csv_of("first", 200, 260)),
                 "--batch-size", "20", "--max-delta-fraction", "0.05",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "recompaction started" in printed
    assert "ingested 60 records" in printed
    want = _ssvs_answer(built_over("all260", 260), capsys)
    assert want[1] and _ssvs_answer(out, capsys) == want

    assert delta_sidecar_path(out).exists()
    assert main(["ingest", str(out), str(csv_of("second", 260, 300)),
                 "--batch-size", "20", "--max-delta-fraction", "0.05"]) == 0
    assert "ingested 40 records" in capsys.readouterr().out
    want = _ssvs_answer(built_over("all300", 300), capsys)
    assert want[1] and _ssvs_answer(out, capsys) == want
