"""Tests for the trace recorder."""

from repro.experiments import ScenarioConfig, build_scenario
from repro.obs import TraceRecorder


def _traced_scenario(**overrides):
    base = dict(protocol="ldr", num_nodes=10, width=800.0, height=300.0,
                num_flows=2, duration=8.0, pause_time=0.0, seed=4)
    base.update(overrides)
    scenario = build_scenario(ScenarioConfig(**base))
    trace = TraceRecorder(scenario.sim).install(scenario)
    return scenario, trace


def test_records_transmissions_and_deliveries():
    scenario, trace = _traced_scenario()
    scenario.run()
    assert trace.select(kind="tx")
    assert trace.select(kind="deliver")
    assert trace.select(kind="route")


def test_events_are_time_ordered():
    scenario, trace = _traced_scenario()
    scenario.run()
    times = [e.time for e in trace.events]
    assert times == sorted(times)


def test_select_filters_by_kind_and_node():
    scenario, trace = _traced_scenario()
    scenario.run()
    node = trace.select(kind="tx")[0].node
    for event in trace.select(kind="tx", node=node):
        assert event.kind == "tx"
        assert event.node == node


def test_select_filters_by_time_window():
    scenario, trace = _traced_scenario()
    scenario.run()
    for event in trace.select(after=2.0, before=4.0):
        assert 2.0 <= event.time <= 4.0


def test_summary_and_format_render():
    scenario, trace = _traced_scenario()
    scenario.run()
    summary = trace.summary()
    assert "tx" in summary
    text = trace.format(limit=5, kind="tx")
    assert text.count("\n") <= 5


def test_max_events_truncates():
    scenario, trace = _traced_scenario()
    trace.max_events = 10
    scenario.run()
    assert len(trace.events) == 10
    assert trace.truncated


def test_loop_checker_still_runs_when_traced():
    """The recorder chains, not replaces, existing table-change hooks."""
    scenario, trace = _traced_scenario(loop_check=True)
    # install() ran after the loop checker; chaining must preserve it.
    scenario.run()
    assert scenario.loop_checker.checks_run > 0
    assert trace.select(kind="route")
