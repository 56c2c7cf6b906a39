"""Unit tests for the wireless channel: range, collisions, half duplex."""

from repro.mobility import StaticPlacement
from repro.net import Node, WirelessChannel
from repro.net.packet import Frame, Packet
from repro.sim import Simulator


class _Sink:
    """Minimal routing stand-in capturing received packets."""

    def __init__(self):
        self.received = []

    def start(self):
        pass

    def on_packet(self, packet, from_id):
        self.received.append((packet, from_id))


def _build(positions, transmission_range=275.0):
    sim = Simulator(seed=3)
    placement = StaticPlacement(positions)
    channel = WirelessChannel(sim, placement, transmission_range)
    nodes = {}
    sinks = {}
    for node_id in placement.node_ids():
        node = Node(sim, node_id, channel)
        sink = _Sink()
        node.routing = sink
        node.mac.receive_fn = sink.on_packet
        nodes[node_id] = node
        sinks[node_id] = sink
    return sim, channel, nodes, sinks


def test_neighbors_within_range():
    _, channel, _, _ = _build({0: (0, 0), 1: (200, 0), 2: (600, 0)})
    assert channel.neighbors_of(0) == [1]
    assert set(channel.neighbors_of(1)) == {0}
    assert channel.in_range(0, 1)
    assert not channel.in_range(0, 2)


def test_boundary_distance_is_in_range():
    _, channel, _, _ = _build({0: (0, 0), 1: (275.0, 0)})
    assert channel.in_range(0, 1)
    # The disk is crisp: no loss band near the edge, every frame decodes.
    sim, channel, _, sinks = _build({0: (0, 0), 1: (274.0, 0)})
    for _ in range(20):
        channel.transmit(Frame(Packet(), 0, None), duration=1e-4)
        sim.run(until=sim.now + 0.01)
    assert len(sinks[1].received) == 20


def test_broadcast_reaches_all_in_range():
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (100, 0), 2: (200, 0),
                                         3: (900, 0)})
    frame = Frame(Packet(), sender=0, link_dst=None)
    channel.transmit(frame, duration=0.001)
    sim.run()
    assert len(sinks[1].received) == 1
    assert len(sinks[2].received) == 1
    assert sinks[3].received == []


def test_unicast_only_delivered_to_destination():
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (100, 0), 2: (200, 0)})
    frame = Frame(Packet(), sender=0, link_dst=2)
    channel.transmit(frame, duration=0.001)
    sim.run()
    assert sinks[2].received and not sinks[1].received


def test_overlapping_transmissions_collide():
    sim, channel, nodes, sinks = _build(
        {0: (0, 0), 1: (150, 0), 2: (300, 0)}
    )
    # 0 and 2 both in range of 1; simultaneous frames corrupt each other at 1.
    channel.transmit(Frame(Packet(), sender=0, link_dst=None), duration=0.002)
    channel.transmit(Frame(Packet(), sender=2, link_dst=None), duration=0.002)
    sim.run()
    assert sinks[1].received == []
    # The hidden terminals are out of range of each other (300 m > 275 m),
    # so neither hears the other's frame.
    assert sinks[0].received == []
    assert sinks[2].received == []


def test_staggered_transmissions_do_not_collide():
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (150, 0), 2: (300, 0)})
    channel.transmit(Frame(Packet(), sender=0, link_dst=None), duration=0.001)
    sim.schedule(0.005, lambda: channel.transmit(
        Frame(Packet(), sender=2, link_dst=None), duration=0.001))
    sim.run()
    assert len(sinks[1].received) == 2


def test_unicast_outcome_reported_success():
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (100, 0)})
    outcomes = []
    nodes[0].mac.on_tx_outcome = lambda frame, ok: outcomes.append(ok)
    channel.transmit(Frame(Packet(), sender=0, link_dst=1), duration=0.001)
    sim.run()
    assert outcomes == [True]


def test_unicast_outcome_reported_failure_out_of_range():
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (1000, 0)})
    outcomes = []
    nodes[0].mac.on_tx_outcome = lambda frame, ok: outcomes.append(ok)
    channel.transmit(Frame(Packet(), sender=0, link_dst=1), duration=0.001)
    sim.run()
    assert outcomes == [False]


def test_observers_see_transmissions():
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (100, 0)})
    seen = []
    channel.observers.append(lambda s, f, r: seen.append((s, tuple(r))))
    channel.transmit(Frame(Packet(), sender=0, link_dst=None), duration=0.001)
    sim.run()
    assert seen == [(0, (1,))]


def test_receiver_transmitting_misses_frame():
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (150, 0)})
    # Make node 1 "transmitting" for the duration of node 0's frame.
    nodes[1].mac._tx_end = 10.0
    nodes[1].mac._current = object()
    channel.transmit(Frame(Packet(), sender=0, link_dst=None), duration=0.001)
    sim.run(until=5.0)
    assert sinks[1].received == []
