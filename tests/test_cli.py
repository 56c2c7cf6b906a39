"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main

TINY = ["--nodes", "10", "--flows", "2", "--duration", "6", "--seed", "3"]


def test_run_prints_json(capsys):
    assert main(["run", "--protocol", "ldr"] + TINY) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["delivery_ratio"] <= 1.0
    assert "network_load" in payload


def test_profile_writes_flame_file(capsys, tmp_path):
    out = tmp_path / "profile.folded"
    assert main(["profile", "--flame", str(out), "--interval", "1"]
                + TINY) == 0
    captured = capsys.readouterr()
    # Tiny runs finish in milliseconds, so the folded file may have few
    # (or zero) samples — but it must exist and be well-formed, and the
    # deterministic counters must still be reported.
    assert out.exists()
    for line in out.read_text(encoding="utf-8").splitlines():
        stack, count = line.rsplit(" ", 1)
        assert stack and int(count) > 0
    assert "flame:" in captured.err
    assert "sim.events_dispatched" in captured.err


def test_profile_prints_top_stacks(capsys):
    assert main(["profile", "--top", "3"] + TINY) == 0
    assert "sim.events_dispatched" in capsys.readouterr().err


def test_compare_prints_rows(capsys):
    assert main(["compare", "--protocols", "ldr,aodv"] + TINY) == 0
    out = capsys.readouterr().out
    assert "ldr" in out and "aodv" in out


def test_compare_rejects_unknown_protocol(capsys):
    assert main(["compare", "--protocols", "ospf"] + TINY) == 2


def test_campaign_warnings_reach_a_non_tty_stderr(capsys, tmp_path):
    # Off a terminal (a pipe, CI, ``2> file``) no status line is drawn,
    # but every engine warning still gets its own line.
    argv = ["compare", "--nodes", "10", "--duration", "4", "--flows", "2",
            "--protocols", "ldr,aodv", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert first.err == ""
    sorted(tmp_path.glob("??/*.json"))[0].write_text("{")
    assert main(argv) == 0
    second = capsys.readouterr()
    assert "warning: corrupt cache entry" in second.err
    assert second.out == first.out


def test_audit_reports_loop_freedom(capsys):
    assert main(["audit"] + TINY) == 0
    out = capsys.readouterr().out
    assert "YES" in out


def test_audit_honours_protocol(capsys):
    assert main(["audit", "--protocol", "aodv"] + TINY) == 0
    out = capsys.readouterr().out
    assert "AODV loop-free   : YES" in out
    assert "LDR" not in out


@pytest.mark.parametrize("protocol", ["dsr", "dsr7", "oracle"])
def test_audit_sweeps_protocols_without_table_change_hooks(capsys, protocol):
    # These never fire table_change_hook; only the end-of-run sweep can
    # audit them, so a zero count would make their YES vacuous.
    assert main(["audit", "--protocol", protocol] + TINY) == 0
    out = capsys.readouterr().out
    assert int(out.split("table audits run :")[1].split()[0]) > 0
    assert "%-16s : YES" % (protocol.upper() + " loop-free") in out


def test_audit_reports_breach_and_exits_nonzero(capsys, monkeypatch):
    import repro.__main__ as cli

    build = cli.build_scenario

    def build_with_forged_cycle(config):
        scenario = build(config)

        def forge():
            # A two-node cycle toward destination 2, poked through the
            # hook the way a real table change would be.
            a, b = scenario.protocols[0], scenario.protocols[1]
            a.successor = lambda dst: 1
            b.successor = lambda dst: 0
            b.table_change_hook(b, 2)

        scenario.sim.schedule_at(6.0, forge)
        return scenario

    monkeypatch.setattr(cli, "build_scenario", build_with_forged_cycle)
    argv = ["audit", "--nodes", "10", "--flows", "2", "--duration", "8",
            "--seed", "3"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    # The audit stops at the first breach and names it.
    assert out.splitlines()[0] == (
        "breach           : routing loop for destination 2: [0, 1, 0]")
    assert "violations       : 1" in out
    assert "LDR loop-free    : NO" in out


def test_connectivity_prints_bound(capsys):
    assert main(["connectivity", "--samples", "3"] + TINY) == 0
    out = capsys.readouterr().out
    assert "connectivity" in out


def test_figure_runs_tiny(capsys):
    assert main(["figure", "fig2", "--duration", "5", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "ldr" in out


def test_table1_runs_tiny(capsys):
    assert main(["table1", "--flows", "2", "--duration", "4",
                 "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "LDR" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_table1_with_jobs_and_cache(capsys, tmp_path):
    cache_dir = str(tmp_path / "cli-cache")
    argv = ["table1", "--flows", "2", "--duration", "4", "--trials", "1",
            "--jobs", "2", "--cache-dir", cache_dir]
    assert main(argv) == 0
    first = capsys.readouterr().out
    # Second invocation replays from cache and prints identical numbers.
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert second == first
    from repro.exec import ResultCache

    assert ResultCache(cache_dir).stats()["entries"] > 0


def test_no_cache_leaves_store_empty(tmp_path):
    cache_dir = str(tmp_path / "cli-cache")
    assert main(["table1", "--flows", "2", "--duration", "4", "--trials",
                 "1", "--no-cache", "--cache-dir", cache_dir]) == 0
    from repro.exec import ResultCache

    assert ResultCache(cache_dir).stats()["entries"] == 0


def test_cache_subcommand_stats_list_clear(capsys, tmp_path):
    cache_dir = str(tmp_path / "cli-cache")
    assert main(["compare", "--protocols", "ldr", "--cache-dir", cache_dir]
                + TINY) == 0
    capsys.readouterr()

    assert main(["cache", "--cache-dir", cache_dir, "--list"]) == 0
    out = capsys.readouterr().out
    assert "entries   : 1" in out
    assert "ldr" in out

    assert main(["cache", "--cache-dir", cache_dir, "--clear"]) == 0
    assert "removed 1" in capsys.readouterr().out

    assert main(["cache", "--cache-dir", cache_dir]) == 0
    assert "entries   : 0" in capsys.readouterr().out
