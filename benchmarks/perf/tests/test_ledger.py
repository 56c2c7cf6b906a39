"""Self-time accounting, layer attribution and wrapping transparency."""

import json

import pytest

from benchmarks.perf import ledger
from benchmarks.perf.ledger import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_inclusive_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap(lambda: clock.advance(2.0), "b", "leaf")

    def middle():
        clock.advance(1.0)
        leaf()
        clock.advance(3.0)
        leaf()

    middle = tracer.wrap(middle, "a", "middle", keep=True)

    def top():
        clock.advance(5.0)
        middle()

    _, wall = tracer.region("top", top)
    assert wall == 13.0
    assert tracer.table[("b", "leaf")] == [2, 4.0, 4.0]
    assert tracer.table[("a", "middle")] == [1, 8.0, 4.0]
    assert tracer.table[(ledger.HARNESS, "top")] == [1, 13.0, 5.0]
    assert sum(layer["self_s"] for layer in tracer.layers().values()) == wall
    root, kept = tracer.records
    assert (root["name"], root["parent"]) == ("top", None)
    assert (kept["name"], kept["parent"]) == ("middle", root["id"])


def test_kept_spans_carry_the_trial_key():
    tracer = Tracer()
    keyed = tracer.wrap(lambda config: "key-" + config, "exec", "trial_key",
                        keep=True, trial="result")
    trial = tracer.wrap(lambda: None, "exec", "trial", keep=True)
    keyed("a")
    trial()
    assert [r["trial"] for r in tracer.records] == ["key-a", "key-a"]


@pytest.mark.parametrize("module, layer", [
    ("repro.sim.timers", "sim"),
    ("repro.net.spatial", "net.channel"),
    ("repro.net.queue", "net.mac"),
    ("repro.net.node", "net.node"),
    ("repro.routing.base", "proto"),
    ("repro.routing.loopcheck", "faults"),
    ("repro.protocols.olsr.protocol", "proto"),
    ("repro.experiments.scenario", "experiments"),
    ("builtins", ledger.OTHER),
    (None, ledger.OTHER),
])
def test_layer_of(module, layer):
    assert ledger.layer_of(module) == layer


def test_event_callbacks_are_attributed_to_their_module():
    tracer = Tracer()

    def on_timer():
        return "fired"

    on_timer.__module__ = "repro.protocols.aodv.protocol"
    assert tracer.callback(on_timer)() == "fired"
    [(key, stats)] = [(k, v) for k, v in tracer.table.items() if v[0]]
    assert key[0] == "proto" and stats[0] == 1


def tiny_config(protocol="ldr"):
    from repro.experiments.scenario import ScenarioConfig

    return ScenarioConfig(protocol=protocol, num_nodes=10, width=600.0,
                          height=300.0, num_flows=2, duration=4.0,
                          warmup=1.0, seed=3)


def test_wrapping_leaves_a_trial_row_byte_identical():
    from repro.experiments.scenario import Scenario, run_scenario

    plain = json.dumps(run_scenario(tiny_config()).as_dict(), sort_keys=True)
    original_run = Scenario.run
    tracer = Tracer()
    instrumentation = ledger.Instrumentation(tracer).install()
    try:
        report, wall = tracer.region("workload",
                                   lambda: run_scenario(tiny_config()))
    finally:
        instrumentation.uninstall()
    assert Scenario.run is original_run
    assert json.dumps(report.as_dict(), sort_keys=True) == plain
    layers = tracer.layers()
    for name in ("sim", "net.channel", "net.mac", "proto", "mobility",
                 "experiments"):
        assert layers[name]["calls"] > 0, name
    assert sum(layer["self_s"] for layer in layers.values()) == \
        pytest.approx(wall, rel=0.05)
