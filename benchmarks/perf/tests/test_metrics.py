"""Every reported metric is declared in BENCHMARK.json, and vice versa.

Runs a toy traced workload through the same code the child process runs,
so the names come from real measurements, not a hand-kept list.
"""

import json

import pytest

from benchmarks.perf import child, ledger, report, workloads

SPEC = report.load_spec()


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(report.NAME_RE.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """A 3-trial traced campaign: timed passes, then a traced pass."""
    out = tmp_path_factory.mktemp("toy")
    toy = workloads.Workload(
        "toy", lambda seed: workloads.campaign_configs(
            seed, trials=3, duration=3.0), trace=True)
    probe = ledger.CounterProbe().install()
    try:
        runner = child.Runner(toy, toy.build(1), out, probe)
        timed = runner.timed(runner.start(), seconds=0.0)
        tracer = ledger.Tracer()
        instrumentation = ledger.Instrumentation(tracer).install()
        try:
            traced_runner = child.Runner(toy, toy.build(1), out, probe)
            layers = child.traced(traced_runner, tracer,
                                  traced_runner.start(), out)
        finally:
            instrumentation.uninstall()
    finally:
        probe.uninstall()
    return out, runner, timed, traced_runner, layers


def test_checks_pass_and_traced_rows_match(toy_run):
    _, runner, _, traced_runner, _ = toy_run
    assert runner.problems == [] and traced_runner.problems == []
    for key in ("rows_sha256", "counters_sha256", "traces_sha256"):
        assert runner.identity()[key] == traced_runner.identity()[key]


def test_printed_metrics_are_exactly_the_declared_ones(toy_run):
    _, runner, timed, traced_runner, layers = toy_run
    end_to_end = report.with_units(
        report.end_to_end_metrics(dict(timed, peak_rss_mb=100.0), [1.0]),
        report.metric_units(SPEC, "end_to_end"))
    per_layer = report.with_units(
        report.layer_metrics(layers, traced_runner.reference["totals"],
                             traced_runner.reference["trace_bytes"], timed),
        report.metric_units(SPEC, "per_layer"))
    for metrics, section in ((end_to_end, "end_to_end"),
                             (per_layer, "per_layer")):
        printed = [line.split()[1]
                   for line in report.metric_lines("toy", metrics)]
        assert all(report.NAME_RE.match(name) for name in printed)
        assert printed == [m["name"] for m in SPEC[section]]


def test_layer_self_times_sum_to_the_traced_wall(toy_run):
    out, _, _, _, layers = toy_run
    total = sum(layer["self_s"] for layer in layers["layers"].values())
    assert total == pytest.approx(layers["wall_s"], rel=0.05)
    assert json.loads((out / "layers.json").read_text()) == \
        json.loads(json.dumps(layers))
    spans = [json.loads(line)
             for line in (out / "spans.jsonl").read_text().splitlines()]
    names = {span["name"] for span in spans}
    assert {"workload", "cold", "resume", "trial"} <= names
    assert all(span["trial"] for span in spans if span["name"] == "trial")
