"""Unit tests for scenario construction and execution."""

import pytest

from repro.core import LdrConfig
from repro.experiments import PROTOCOLS, ScenarioConfig, build_scenario, run_scenario
from repro.mobility import RandomWaypoint, StaticPlacement


def _tiny(**overrides):
    base = dict(protocol="ldr", num_nodes=10, width=800.0, height=300.0,
                num_flows=2, duration=10.0, pause_time=0.0, seed=3)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_registry_has_all_protocols():
    assert {"ldr", "aodv", "dsr", "dsr7", "olsr"} <= set(PROTOCOLS)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(protocol="ospf")


def test_replaced_overrides_and_validates():
    config = _tiny()
    clone = config.replaced(seed=99, num_flows=5)
    assert clone.seed == 99 and clone.num_flows == 5
    assert config.seed == 3
    with pytest.raises(AttributeError):
        config.replaced(bogus=1)


def test_build_creates_all_nodes_and_protocols():
    scenario = build_scenario(_tiny())
    assert len(scenario.nodes) == 10
    assert len(scenario.protocols) == 10
    assert all(p.name == "ldr" for p in scenario.protocols.values())
    assert isinstance(scenario.mobility, RandomWaypoint)


def test_full_pause_uses_static_placement():
    scenario = build_scenario(_tiny(pause_time=10.0, duration=10.0))
    assert isinstance(scenario.mobility, StaticPlacement)


def test_placements_pin_every_node():
    positions = [(150.0 * i, 20.0 * (i % 3)) for i in range(10)]
    scenario = build_scenario(_tiny(placements=positions))
    assert isinstance(scenario.mobility, StaticPlacement)
    for node, position in enumerate(positions):
        for when in (0.0, 5.0, 10.0):
            assert scenario.mobility.position(node, when) == position


def test_run_returns_report_with_traffic():
    report = run_scenario(_tiny())
    d = report.as_dict()
    assert d["data_originated"] > 0
    assert 0.0 <= d["delivery_ratio"] <= 1.0


def test_same_seed_same_results():
    a = run_scenario(_tiny()).as_dict()
    b = run_scenario(_tiny()).as_dict()
    assert a == b


def test_different_protocols_share_workload():
    """Mobility and traffic RNG streams are protocol-independent."""
    ldr = build_scenario(_tiny(protocol="ldr"))
    aodv = build_scenario(_tiny(protocol="aodv"))
    assert [f.src for f in ldr.traffic.flows] == [f.src for f in aodv.traffic.flows]
    assert ldr.mobility.position(3, 5.0) == aodv.mobility.position(3, 5.0)


def test_protocol_config_passed_through():
    config = LdrConfig(ttl_start=9)
    scenario = build_scenario(_tiny(protocol_config=config))
    assert all(p.config.ttl_start == 9 for p in scenario.protocols.values())


def test_seqno_observed_for_destinations():
    report = run_scenario(_tiny(protocol="aodv"))
    assert report.c.seqno_final  # every used destination observed
