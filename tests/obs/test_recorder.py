"""Tests for TraceRecorder retention, filtering, and hook wiring."""

from repro.experiments import ScenarioConfig, build_scenario
from repro.faults import FaultPlan, NodeCrash, NodeReboot
from repro.obs import TraceRecorder


class StubSim:
    """Just enough simulator for a recorder: a clock."""

    def __init__(self):
        self.now = 0.0


def _fill(recorder, count):
    sim = recorder.sim
    for i in range(count):
        sim.now = float(i)
        recorder.record("tx", i)


def test_oldest_policy_keeps_the_head():
    recorder = TraceRecorder(StubSim(), max_events=5)
    _fill(recorder, 12)
    assert recorder.truncated
    assert recorder.recorded == 12
    assert [e.node for e in recorder.events] == [0, 1, 2, 3, 4]


def test_unbounded_never_truncates():
    recorder = TraceRecorder(StubSim(), max_events=None)
    _fill(recorder, 300)
    assert not recorder.truncated
    assert len(recorder.events) == 300


def test_exactly_at_cap_is_not_truncated():
    recorder = TraceRecorder(StubSim(), max_events=5)
    _fill(recorder, 5)
    assert not recorder.truncated
    assert len(recorder.events) == 5


def test_select_filters_compose():
    recorder = TraceRecorder(StubSim())
    sim = recorder.sim
    for i in range(10):
        sim.now = float(i)
        recorder.record("tx" if i % 2 else "drop", i % 3, dst=i % 4)
    picked = recorder.select(kind="tx", node=1, after=2.0, before=8.0)
    for event in picked:
        assert event.kind == "tx"
        assert event.node == 1
        assert 2.0 <= event.time <= 8.0
    assert picked == [
        e for e in recorder.select(kind="tx", node=1)
        if 2.0 <= e.time <= 8.0
    ]
    assert all(e.data["dst"] == 3 for e in recorder.select(dst=3))


def test_to_json_and_format_render():
    import json

    recorder = TraceRecorder(StubSim())
    _fill(recorder, 8)
    docs = json.loads(recorder.to_json(kind="tx"))
    assert len(docs) == 8
    assert docs[0]["kind"] == "tx"
    text = recorder.format(limit=3)
    assert "... 5 more" in text


def test_summary_reports_truncation():
    recorder = TraceRecorder(StubSim(), max_events=2)
    _fill(recorder, 6)
    summary = recorder.summary()
    assert "2 events" in summary
    assert "truncated" in summary
    assert "6 recorded" in summary


class StubProtocol:
    def __init__(self):
        self.node_id = 1
        self.table_change_hook = None
        self.dropped = []

    def successor(self, dst):
        return 2

    def route_metric(self, dst):
        return (7, 1, 3)

    def drop_data(self, packet, reason):
        self.dropped.append((packet, reason))


def test_table_hook_chains_instead_of_replacing():
    recorder = TraceRecorder(StubSim())
    protocol = StubProtocol()
    seen = []
    protocol.table_change_hook = lambda proto, dst: seen.append(dst)
    recorder._chain_table_hook(protocol)
    protocol.table_change_hook(protocol, 9)
    assert seen == [9]  # previous observer still fires
    (event,) = recorder.select(kind="route")
    assert event.data["dst"] == 9
    assert event.data["successor"] == 2
    assert event.data["metric"] == (7, 1, 3)


def _traced_faulty_scenario(plan):
    config = ScenarioConfig(
        protocol="ldr", num_nodes=10, width=800.0, height=300.0,
        num_flows=2, duration=8.0, pause_time=0.0, seed=4,
        fault_plan=plan, invariant_check=True, trace=True,
    )
    return build_scenario(config)


def test_fault_plan_transitions_are_traced():
    plan = FaultPlan(events=[NodeCrash(3, 2.0)])
    scenario = _traced_faulty_scenario(plan)
    scenario.run()
    faults = scenario.trace.select(kind="fault")
    assert faults
    assert any("crash" in e.data["what"] for e in faults)


def test_reboot_reinstruments_fresh_protocol():
    """Route changes on a rebooted node keep flowing into the trace."""
    plan = FaultPlan(events=[NodeCrash(3, 2.0), NodeReboot(3, 3.0)])
    scenario = _traced_faulty_scenario(plan)
    scenario.run()
    # the reboot replaced node 3's protocol; its new instance must be
    # chained to both the recorder and the monitor
    rebooted = scenario.protocols[3]
    assert rebooted.table_change_hook is not None
    events = scenario.trace.select(kind="fault")
    assert any("reboot" in e.data["what"] for e in events)


def test_monitor_still_checks_when_traced():
    """Recorder chaining must not starve the invariant monitor."""
    plan = FaultPlan(events=[NodeCrash(3, 2.0)])
    scenario = _traced_faulty_scenario(plan)
    scenario.run()
    assert scenario.monitor.checks_run > 0
