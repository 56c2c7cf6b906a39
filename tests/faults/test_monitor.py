"""InvariantMonitor: clean runs stay clean, violations are caught.

The centrepiece is the issue's acceptance scenario: a flow crosses a
relay, the relay crashes mid-flow and reboots with zeroed counters, a
partition opens and heals — and LDR comes out with ZERO loop/ordering
violations under a strict monitor.
"""

import pytest

from repro.core import LdrProtocol
from repro.faults import (
    FaultInjector,
    FaultPlan,
    InvariantMonitor,
    InvariantViolation,
    NodeCrash,
    NodeReboot,
    Partition,
)
from repro.mobility import StaticPlacement
from repro.routing.seqnum import LabeledSeq
from tests.conftest import Network


def _monitored(net, plan=None, strict=True, demands=()):
    monitor = InvariantMonitor(
        net.sim, net.protocols, nodes=net.nodes, channel=net.channel,
        metrics=net.metrics, strict=strict,
        reconvergence_bound=(plan.reconvergence_bound if plan else None),
        demand_fn=lambda: demands,
    ).install()
    injector = None
    if plan is not None:
        injector = FaultInjector(net.sim, net.nodes, net.channel, plan,
                                 protocols=net.protocols,
                                 monitor=monitor).install()
    return monitor, injector


def test_acceptance_crash_reboot_heal_is_violation_free_for_ldr():
    net = Network(LdrProtocol, StaticPlacement.line(5, 200.0))
    plan = FaultPlan(
        events=[
            NodeCrash(2, 3.0),      # the relay of the 0 -> 4 flow
            NodeReboot(2, 6.0),     # back with a zeroed counter
            Partition([[0, 1, 2], [3, 4]], 8.0, 11.0),  # then heal
        ],
        reconvergence_bound=6.0,
    )
    monitor, _ = _monitored(net, plan, strict=True, demands=[(0, 4)])
    # A steady flow across the whole line, spanning every fault window.
    for i in range(72):
        net.sim.schedule_at(0.25 * i, net.nodes[0].send_data, 4)
    net.run(20.0)  # strict monitor: any violation raises immediately
    assert monitor.violations == []
    assert monitor.checks_run > 0  # the audit actually ran
    assert len(net.delivered_to(4)) > 0  # traffic flowed before/after faults
    assert net.metrics.loop_violations == 0
    assert sum(net.metrics.invariant_violations.values()) == 0


def test_loop_in_tables_is_recorded_with_kind():
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    monitor, _ = _monitored(net, strict=False)
    net.send(0, 2)
    net.run(1.0)
    # Forge a two-node cycle toward destination 2 behind the checker's back,
    # then poke the hook the way a real table change would.
    net.protocols[0].table[2].next_hop = 1
    net.protocols[1].table[2].next_hop = 0
    monitor.on_table_change(net.protocols[1], 2)
    kinds = [kind for _, kind, _ in monitor.violations]
    assert "loop" in kinds or "ordering" in kinds
    assert net.metrics.loop_violations >= 1


def test_strict_mode_raises_on_violation():
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    monitor, _ = _monitored(net, strict=True)
    net.send(0, 2)
    net.run(1.0)
    net.protocols[0].table[2].next_hop = 1
    net.protocols[1].table[2].next_hop = 0
    with pytest.raises(InvariantViolation):
        monitor.on_table_change(net.protocols[1], 2)


def test_seqnum_ownership_catches_forged_labels():
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    monitor, _ = _monitored(net, strict=False)
    net.send(0, 2)
    net.run(1.0)
    entry = net.protocols[0].table[2]
    # Nobody but node 2 may mint labels; forge one far in its future.
    entry.seqno = LabeledSeq(net.sim.now + 1000.0, 5)
    entry.fd = 0  # keep the forged route "best" so ordering does not fire first
    monitor.on_table_change(net.protocols[0], 2)
    kinds = [kind for _, kind, _ in monitor.violations]
    assert "seqnum_ownership" in kinds


def test_delivery_to_crashed_node_is_a_violation():
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    monitor, _ = _monitored(net, strict=False)
    net.run(0.5)
    net.nodes[2].crash()
    monitor.on_crash(2)
    # Force the fault-layer bug the check exists for.
    from repro.net.packet import DataPacket
    net.nodes[2].deliver(DataPacket(src=0, dst=2, size_bytes=64,
                                    flow_id=0, seq=0, created_at=0.0))
    kinds = [kind for _, kind, _ in monitor.violations]
    assert "dead_delivery" in kinds


def test_table_change_on_crashed_node_is_a_violation():
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    monitor, _ = _monitored(net, strict=False)
    net.send(0, 2)
    net.run(1.0)
    net.nodes[1].crash()
    monitor.on_crash(1)
    # The crashed instance must not mutate routing state; forge the bug.
    monitor.on_table_change(net.protocols[1], 2)
    assert monitor.violations == [
        (net.sim.now, "dead_table_change",
         "crashed node 1 changed its table for 2")]


def test_transmit_from_crashed_node_is_a_violation():
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    monitor, _ = _monitored(net, strict=False)
    # Tell only the monitor about the crash, so the radio still sends:
    # the fault-layer bug the check exists for.
    monitor.on_crash(0)
    net.send(0, 2)
    net.run(1.0)
    kinds = [kind for _, kind, _ in monitor.violations]
    assert "dead_transmit" in kinds
    assert all(detail.startswith("crashed node 0 transmitted")
               for _, kind, detail in monitor.violations
               if kind == "dead_transmit")


def test_reconvergence_violation_when_no_route_after_heal():
    # Nodes 0 and 2 are physically connected via 1, but we gag discovery
    # so no route can form after the heal: the monitor must flag it.
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    plan = FaultPlan(
        events=[Partition([[0], [1, 2]], 1.0, 2.0)],
        reconvergence_bound=3.0,
    )
    monitor, _ = _monitored(net, plan, strict=False, demands=[(0, 2)])
    for node in net.nodes.values():
        node.mac.down = True  # radios silently eat everything
    net.run(10.0)  # heal at t=2, deadline at t=5
    kinds = [kind for _, kind, _ in monitor.violations]
    assert "reconvergence" in kinds


def test_reconvergence_satisfied_when_route_reforms():
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    plan = FaultPlan(
        events=[Partition([[0], [1, 2]], 1.0, 2.0)],
        reconvergence_bound=5.0,
    )
    monitor, _ = _monitored(net, plan, strict=True, demands=[(0, 2)])
    for i in range(40):
        net.sim.schedule_at(0.25 * i, net.nodes[0].send_data, 2)
    net.run(10.0)
    assert all(kind != "reconvergence" for _, kind, _ in monitor.violations)


def test_monitor_ignores_stale_instance_after_reboot():
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    monitor, _ = _monitored(net, strict=True)
    net.send(0, 2)
    net.run(1.0)
    old = net.protocols[1]
    net.nodes[1].crash()
    monitor.on_crash(1)
    net.nodes[1].reboot()
    net.protocols[1] = net.nodes[1].routing
    monitor.on_reboot(1, net.nodes[1].routing)
    # The discarded instance still holds pre-crash state; its callbacks
    # must be ignored, not audited against the live tables.
    monitor.on_table_change(old, 2)
    assert monitor.violations == []


def test_scenario_level_faulted_ldr_run_reports_zero_violations():
    from repro.experiments.scenario import ScenarioConfig, run_scenario

    plan = FaultPlan(
        events=[
            NodeCrash(3, 8.0),
            NodeReboot(3, 14.0),
            Partition([[0, 1, 2, 3], [4, 5, 6, 7]], 18.0, 24.0),
        ],
        reconvergence_bound=10.0,
    )
    config = ScenarioConfig(
        protocol="ldr", num_nodes=8, num_flows=3, duration=40.0,
        width=800.0, height=600.0, pause_time=900.0, seed=11,
        fault_plan=plan, invariant_check=True,
    )
    row = run_scenario(config).as_dict()
    assert row["loop_violations"] == 0
    assert row["invariant_violations"] == 0
    assert row["data_delivered"] > 0
