"""Unit tests for the CSMA/CA MAC."""

from repro.mobility import StaticPlacement
from repro.net import MacConfig, Node, WirelessChannel
from repro.net.packet import Packet
from repro.sim import Simulator


class _Sink:
    def __init__(self):
        self.received = []

    def start(self):
        pass

    def on_packet(self, packet, from_id):
        self.received.append((packet, from_id))


def _build(positions, mac_config=None):
    sim = Simulator(seed=5)
    channel = WirelessChannel(sim, StaticPlacement(positions))
    nodes, sinks = {}, {}
    for node_id in positions:
        node = Node(sim, node_id, channel, mac_config=mac_config)
        sink = _Sink()
        node.routing = sink
        node.mac.receive_fn = sink.on_packet
        nodes[node_id] = node
        sinks[node_id] = sink
    return sim, nodes, sinks


def test_broadcast_delivery():
    sim, nodes, sinks = _build({0: (0, 0), 1: (100, 0), 2: (200, 0)})
    nodes[0].mac.send(Packet())
    sim.run(until=1.0)
    assert len(sinks[1].received) == 1
    assert len(sinks[2].received) == 1
    assert sinks[1].received[0][1] == 0  # from node 0


def test_unicast_delivery_and_success():
    sim, nodes, sinks = _build({0: (0, 0), 1: (100, 0)})
    failures = []
    nodes[0].mac.send(Packet(), next_hop=1,
                      on_fail=lambda p, nh: failures.append(nh))
    sim.run(until=1.0)
    assert len(sinks[1].received) == 1
    assert failures == []


def test_unicast_to_unreachable_retries_then_fails():
    config = MacConfig(retry_limit=3)
    sim, nodes, sinks = _build({0: (0, 0), 1: (5000, 0)}, mac_config=config)
    failures = []
    nodes[0].mac.send(Packet(), next_hop=1,
                      on_fail=lambda p, nh: failures.append(nh))
    sim.run(until=5.0)
    assert failures == [1]
    assert sinks[1].received == []


def test_queue_serves_packets_in_order():
    sim, nodes, sinks = _build({0: (0, 0), 1: (100, 0)})
    packets = [Packet() for _ in range(5)]
    for p in packets:
        nodes[0].mac.send(p, next_hop=1)
    sim.run(until=2.0)
    received = [p for (p, _) in sinks[1].received]
    assert received == packets


def test_queue_overflow_drops_silently():
    """Congestion drops are not link failures: on_fail must NOT fire."""
    config = MacConfig(queue_capacity=2)
    sim, nodes, sinks = _build({0: (0, 0), 1: (100, 0)}, mac_config=config)
    failures = []
    sent_ok = 0
    for _ in range(5):
        if nodes[0].mac.send(Packet(), next_hop=1,
                             on_fail=lambda p, nh: failures.append(p)):
            sent_ok += 1
    sim.run(until=2.0)
    assert failures == []
    assert len(sinks[1].received) == sent_ok
    assert nodes[0].mac.queue.drops == 5 - sent_ok


def test_contending_senders_serialize():
    """Two neighbors sending at once: carrier sense avoids most collisions."""
    sim, nodes, sinks = _build({0: (0, 0), 1: (100, 0), 2: (200, 0)})
    for _ in range(10):
        nodes[0].mac.send(Packet(), next_hop=1)
        nodes[2].mac.send(Packet(), next_hop=1)
    sim.run(until=5.0)
    # Unicast ARQ recovers any residual collisions.
    assert len(sinks[1].received) == 20


def test_transmission_duration_scales_with_size():
    config = MacConfig(bitrate=1e6, header_bytes=0)
    sim, nodes, sinks = _build({0: (0, 0), 1: (100, 0)}, mac_config=config)
    class BigPacket(Packet):
        size_bytes = 12500  # 0.1 s at 1 Mb/s

    big = BigPacket()
    nodes[0].mac.send(big, next_hop=1)
    sim.run(until=10.0)
    assert sinks[1].received
    # Frame cannot have completed before its airtime elapsed.
    assert sim.now >= 0.1
