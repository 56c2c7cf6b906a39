"""Tests for ``repro run --trace``, ``repro campaign --trace`` and the
``repro trace`` inspection subcommands."""

import json
import pathlib

import pytest

from repro.__main__ import main

TINY = ["--nodes", "10", "--flows", "2", "--duration", "6", "--seed", "3"]
CHURN_PLAN = (pathlib.Path(__file__).resolve().parents[2] / "examples"
              / "churn_plan.json")


def _make_trace(path, protocol="ldr", extra=()):
    assert main(["run", "--protocol", protocol, *TINY,
                 "--trace", str(path), *extra]) == 0


def test_run_trace_writes_artifact(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    _make_trace(path)
    capsys.readouterr()
    assert path.is_file()
    header = json.loads(path.read_text().splitlines()[0])
    assert header["type"] == "header"
    assert header["config"]["protocol"] == "ldr"


def test_run_profile_prints_counters(tmp_path, capsys):
    assert main(["run", *TINY, "--profile"]) == 0
    err = capsys.readouterr().err
    snapshot = json.loads(err[err.index("{"):])
    assert snapshot["counters"]["sim.events_dispatched"] > 0


def test_trace_summary_round_trips(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    _make_trace(path)
    capsys.readouterr()
    assert main(["trace", "summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert "tx" in out and "route" in out
    assert "protocol=ldr" in out


def test_trace_show_filters(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    _make_trace(path)
    capsys.readouterr()
    assert main(["trace", "show", str(path), "--kind", "route",
                 "--limit", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out
    for line in out.splitlines():
        assert "route" in line


def test_trace_show_renders_fault_events(tmp_path, capsys):
    # Fault events belong to no node; the churn plan's blackout (10 s)
    # and crash (15 s) fall inside the run.
    path = tmp_path / "churn.jsonl"
    assert main(["run", "--protocol", "ldr", "--nodes", "20", "--flows", "2",
                 "--duration", "16", "--seed", "3", "--faults",
                 str(CHURN_PLAN), "--trace", str(path)]) == 0
    capsys.readouterr()
    assert main(["trace", "show", str(path), "--kind", "fault"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 2
    assert all(" fault " in line and "node=- " in line for line in lines)


def test_trace_routes_replays_sn_fd_d_triplets(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    _make_trace(path)
    capsys.readouterr()
    # find a destination with route events
    dst = None
    for line in path.read_text().splitlines()[1:]:
        doc = json.loads(line)
        if doc["kind"] == "route":
            dst = doc["data"]["dst"]
            break
    assert dst is not None
    assert main(["trace", "routes", str(path), "--dst", str(dst)]) == 0
    out = capsys.readouterr().out
    assert "sn=" in out and "fd=" in out and "d=" in out


def test_trace_diff_identical_exits_zero(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    _make_trace(a)
    _make_trace(b)
    capsys.readouterr()
    assert main(["trace", "diff", str(a), str(b)]) == 0
    assert "identical" in capsys.readouterr().out


def test_trace_diff_ldr_vs_aodv_names_first_divergence(tmp_path, capsys):
    """The churn-divergence workflow: where does AODV's table depart?"""
    ldr = tmp_path / "ldr.jsonl"
    aodv = tmp_path / "aodv.jsonl"
    _make_trace(ldr, protocol="ldr")
    _make_trace(aodv, protocol="aodv")
    capsys.readouterr()
    assert main(["trace", "diff", str(ldr), str(aodv)]) == 1
    out = capsys.readouterr().out
    assert "diverge" in out
    assert "route" in out


def test_trace_diff_all_kinds(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    _make_trace(a, protocol="ldr")
    _make_trace(b, protocol="aodv")
    capsys.readouterr()
    assert main(["trace", "diff", str(a), str(b), "--kind", "all"]) == 1


def test_trace_show_time_window_and_limit(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    _make_trace(path)
    capsys.readouterr()
    assert main(["trace", "show", str(path), "--after", "1", "--before",
                 "5", "--limit", "2"]) == 0
    out = capsys.readouterr().out
    if "more (raise --limit)" in out:
        assert len(out.strip().splitlines()) == 3


def test_trace_routes_node_filter_and_empty(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    _make_trace(path)
    capsys.readouterr()
    # a destination id outside the network has no route events
    assert main(["trace", "routes", str(path), "--dst", "99"]) == 0
    assert "no route events" in capsys.readouterr().out
    assert main(["trace", "routes", str(path), "--dst", "0",
                 "--node", "1"]) == 0


def test_trace_routes_renders_missing_metric_as_dash(tmp_path, capsys):
    """AODV exposes no (sn, fd, d) triplet; routes must still replay."""
    path = tmp_path / "aodv.jsonl"
    _make_trace(path, protocol="aodv")
    capsys.readouterr()
    dst = None
    for line in path.read_text().splitlines()[1:]:
        doc = json.loads(line)
        if doc["kind"] == "route":
            dst = doc["data"]["dst"]
            break
    assert dst is not None
    assert main(["trace", "routes", str(path), "--dst", str(dst)]) == 0
    out = capsys.readouterr().out
    assert " -" in out  # metric renders as a dash, not a crash


def test_trace_diff_length_mismatch(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    _make_trace(a)
    # b = a minus its last event: equal prefix, then one side ends
    lines = a.read_text().splitlines()
    b.write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    assert main(["trace", "diff", str(a), str(b), "--kind", "all"]) == 1
    assert "end of trace" in capsys.readouterr().out


def test_trace_summary_unreadable_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a trace\n")
    assert main(["trace", "summary", str(bad)]) == 2
    assert main(["trace", "summary", str(tmp_path / "missing.jsonl")]) == 2


def test_trace_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["trace"])


def test_campaign_churn_emits_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # exit 1 is legal here: tiny partition runs can breach the
    # reconvergence bound, and the churn command surfaces violations
    rc = main(["campaign", "churn", "--duration", "4", "--trials", "1",
               "--trace", str(tmp_path / "artifacts")])
    assert rc in (0, 1)
    capsys.readouterr()
    artifacts = list((tmp_path / "artifacts").glob("*.trace.jsonl"))
    # 5 fault plans x 3 protocols x 1 trial
    assert len(artifacts) == 15
    # each artifact is summarizable
    assert main(["trace", "summary", str(artifacts[0])]) == 0
