"""Behavioural tests for the DUAL substrate."""

from repro.faults import InvariantMonitor
from repro.mobility import StaticPlacement
from repro.protocols.dual import DualProtocol
from repro.protocols.dual.protocol import INFINITY
from tests.conftest import Network


def _line(count=4, config=None, seed=1):
    return Network(DualProtocol, StaticPlacement.line(count, 200.0),
                   config=config, seed=seed)


def test_routes_converge_proactively():
    net = _line(4)
    net.run(8.0)
    # Every node knows every other without any data being sent.
    for src in range(4):
        for dst in range(4):
            if src == dst:
                continue
            state = net.protocols[src].dests.get(dst)
            assert state is not None and state.dist < INFINITY, (src, dst)


def test_distances_are_shortest_paths():
    net = _line(5)
    net.run(10.0)
    for src in range(5):
        for dst in range(5):
            if src != dst:
                assert net.protocols[src].dests[dst].dist == abs(src - dst)


def test_data_delivery_after_convergence():
    net = _line(4)
    net.run(8.0)
    net.send(0, 3)
    net.run(1.0)
    assert len(net.delivered_to(3)) == 1


def test_data_before_convergence_dropped():
    net = _line(4)
    net.send(0, 3)
    net.run(0.01)
    assert net.metrics.data_dropped.get("no_route", 0) >= 1


def test_feasible_distance_invariant():
    net = _line(5)
    net.run(10.0)
    for protocol in net.protocols.values():
        for state in protocol.dests.values():
            if state.dist < INFINITY:
                assert state.fd <= state.dist


def test_local_computation_on_feasible_change():
    """A shorter advertisement below fd is adopted without any query."""
    net = _line(3)
    net.run(8.0)
    queries_before = net.metrics.control_initiated.get("query", 0)
    protocol = net.protocols[0]
    # Fake a better advertisement from node 1 for destination 2.
    from repro.protocols.dual.messages import DualUpdate

    protocol.on_packet(DualUpdate(1, {2: 0}), from_id=1)
    assert protocol.dests[2].dist == 1
    assert net.metrics.control_initiated.get("query", 0) == queries_before


def test_diffusing_computation_on_partition():
    """Cutting the only route forces queries, and the computation
    terminates with the route withdrawn."""
    net = _line(3)
    net.run(8.0)
    assert net.protocols[0].dests[2].dist == 2
    # Node 2 disappears.
    net.placement.move(2, 90000.0, 0.0)
    net.run(15.0)
    assert net.metrics.control_initiated.get("query", 0) > 0
    state = net.protocols[0].dests[2]
    assert not state.active
    assert state.dist == INFINITY


def test_route_repairs_after_node_returns():
    net = _line(3)
    net.run(8.0)
    net.placement.move(2, 90000.0, 0.0)
    net.run(12.0)
    net.placement.move(2, 400.0, 0.0)
    net.run(12.0)
    assert net.protocols[0].dests[2].dist == 2
    net.send(0, 2)
    net.run(1.0)
    assert len(net.delivered_to(2)) == 1


def test_successor_graph_acyclic_throughout_churn():
    placement = StaticPlacement.grid(3, 3, 200.0)
    net = Network(DualProtocol, placement, seed=4)
    monitor = InvariantMonitor(net.sim, net.protocols, check_ordering=False,
                               strict=True).install()
    net.run(8.0)
    net.placement.move(4, 50000.0, 0.0)
    net.run(10.0)
    net.placement.move(4, 200.0, 200.0)
    net.run(10.0)
    assert monitor.checks_run > 0


def test_proactive_overhead_without_traffic():
    """DUAL pays control cost with zero data — the on-demand motivation."""
    net = _line(4)
    net.run(10.0)
    assert net.metrics.control_transmissions.get("hello", 0) > 0
    assert net.metrics.control_transmissions.get("update", 0) > 0
