"""Tests for the kernel-benchmark harness (repro.bench).

Real timing numbers are machine noise; these tests pin the *mechanics*:
report shape, baseline comparison math, and CLI exit codes — with tiny
sweep sizes so the whole file stays cheap.
"""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    compare_to_baseline,
    extract_speedups,
    run_kernel_bench,
)
from repro.bench.cli import main


def _tiny_report(**kw):
    defaults = dict(sizes=(6,), rounds=1, transmit_reps=2, seed=3)
    defaults.update(kw)
    return run_kernel_bench(**defaults)


# ---------------------------------------------------------------------------
# Report shape
# ---------------------------------------------------------------------------

def test_report_shape_and_row_fields():
    report = _tiny_report()
    assert report["schema"] == BENCH_SCHEMA
    assert report["seed"] == 3
    assert report["settings"] == {"sizes": [6], "rounds": 1,
                                  "transmit_reps": 2}
    benches = {row["bench"] for row in report["results"]}
    assert benches == {"neighbors_of", "transmit"}
    for row in report["results"]:
        assert row["n"] == 6
        assert row["scan_ns_per_op"] > 0
        assert row["grid_ns_per_op"] > 0
        assert row["speedup"] == pytest.approx(
            row["scan_ns_per_op"] / row["grid_ns_per_op"])
    assert json.loads(json.dumps(report)) == report  # JSON-able throughout


def test_pair_alternates_legs_and_reports_the_median_ratio_pair():
    from repro.bench.kernel import NS_KERNEL_REPS, _pair
    from repro.net import GridIndex, ScanIndex

    calls = []

    def kernel(index):
        calls.append(index)
        rep = (len(calls) - 1) // 2
        slow = 1.0 + rep  # the host slows, but both legs of a pair alike
        if index is ScanIndex:
            return 400.0 * slow
        # Two outlier pairs (ratio 2 and 16); every other pair is 4.
        return {0: 200.0, 1: 25.0}.get(rep, 100.0) * slow

    scan, grid, speedup = _pair(kernel)
    assert calls[:4] == [ScanIndex, GridIndex, GridIndex, ScanIndex]
    assert len(calls) == 2 * NS_KERNEL_REPS
    assert speedup == scan / grid == 4.0


def test_progress_callback_sees_every_stage():
    lines = []
    _tiny_report(progress=lines.append)
    assert any("neighbors_of" in line for line in lines)
    assert any("transmit" in line for line in lines)


# ---------------------------------------------------------------------------
# Baseline comparison math (pure, no timing involved)
# ---------------------------------------------------------------------------

def _fake_report(speedups):
    results = []
    for key, speedup in speedups.items():
        bench, n = key.rsplit("/", 1)
        results.append({"bench": bench, "n": int(n),
                        "scan_ns_per_op": speedup, "grid_ns_per_op": 1.0,
                        "speedup": speedup})
    return {"schema": BENCH_SCHEMA, "results": results}


def test_extract_speedups_keys_by_bench_and_n():
    report = _fake_report({"neighbors_of/200": 4.0, "transmit/50": 1.2})
    assert extract_speedups(report) == {"neighbors_of/200": 4.0,
                                        "transmit/50": 1.2}


def test_compare_flags_only_real_regressions():
    baseline = {"speedups": {"neighbors_of/200": 4.0, "transmit/50": 1.2}}
    # 4.0 -> 3.3 is within 25% (floor 3.2); 1.2 -> 0.9 is below (floor 0.96).
    report = _fake_report({"neighbors_of/200": 3.3, "transmit/50": 0.9})
    regressions, skipped = compare_to_baseline(report, baseline,
                                               threshold=0.25)
    assert skipped == []
    assert [r["key"] for r in regressions] == ["transmit/50"]
    assert regressions[0]["floor"] == pytest.approx(1.2 / 1.25)


def test_compare_skips_unmeasured_baseline_entries():
    # --quick runs measure a subset: missing keys are reported as skipped,
    # never failed, and extra measured keys are never penalized.
    baseline = {"speedups": {"neighbors_of/400": 8.0, "transmit/50": 1.2}}
    report = _fake_report({"transmit/50": 1.3, "neighbors_of/25": 0.5})
    regressions, skipped = compare_to_baseline(report, baseline)
    assert regressions == []
    assert skipped == ["neighbors_of/400"]


def test_compare_handles_empty_baseline():
    regressions, skipped = compare_to_baseline(
        _fake_report({"transmit/50": 1.0}), {}, threshold=0.25)
    assert regressions == [] and skipped == []


# ---------------------------------------------------------------------------
# CLI exit codes and file outputs
# ---------------------------------------------------------------------------

def _cli(tmp_path, *extra):
    out = tmp_path / "BENCH_kernel.json"
    argv = ["--sizes", "6", "--rounds", "1", "--transmit-reps", "1",
            "--out", str(out)]
    argv.extend(extra)
    return main(argv), out


def test_cli_writes_report_and_skips_gate_without_baseline(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)  # default baseline path surely absent
    code, out = _cli(tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == BENCH_SCHEMA and report["results"]


def test_cli_explicit_missing_baseline_is_usage_error(tmp_path):
    code, _ = _cli(tmp_path, "--baseline", str(tmp_path / "absent.json"))
    assert code == 2


def test_cli_bad_sizes_is_usage_error(tmp_path):
    assert main(["--sizes", "ten", "--out", str(tmp_path / "r.json")]) == 2


def test_cli_update_baseline_then_gate_passes(tmp_path):
    baseline = tmp_path / "baseline.json"
    code, _ = _cli(tmp_path, "--baseline", str(baseline),
                   "--update-baseline")
    assert code == 0
    doc = json.loads(baseline.read_text())
    assert set(doc) == {"schema", "note", "speedups"}
    assert doc["speedups"]  # non-empty speedup map
    # Same machine, immediate re-run: must pass the gate (generous
    # threshold shields the 1-round timing noise).
    code, _ = _cli(tmp_path, "--baseline", str(baseline),
                   "--threshold", "1000")
    assert code == 0


def test_cli_detects_regression_against_doctored_baseline(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "schema": BENCH_SCHEMA,
        "speedups": {"neighbors_of/6": 1e9},  # unreachable speedup
    }))
    code, _ = _cli(tmp_path, "--baseline", str(baseline))
    assert code == 1
