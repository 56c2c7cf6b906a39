"""Expanding-ring search behaviour under LDR (Procedure 1 details)."""

from repro.core import LdrConfig, LdrProtocol
from repro.mobility import StaticPlacement
from tests.conftest import Network


def test_first_ring_does_not_flood_whole_network():
    """With a near destination, the initial small TTL confines the flood."""
    net = Network(LdrProtocol, StaticPlacement.line(8, 200.0),
                  config=LdrConfig(ttl_start=2, optimal_ttl=False))
    net.send(0, 2)  # destination 2 hops away
    net.run(3.0)
    assert len(net.delivered_to(2)) == 1
    # Nodes beyond the ring never relayed the RREQ: they stay unengaged.
    assert all((0, rid) not in net.protocols[6].rreq_cache
               for rid in range(1, 5))


def test_each_retry_uses_fresh_rreqid():
    placement = StaticPlacement({0: (0, 0), 1: (200, 0), 2: (9000, 0)})
    net = Network(LdrProtocol, placement,
                  config=LdrConfig(ttl_start=1, rreq_retries=2))
    net.send(0, 2)
    net.run(10.0)
    # Node 1 became engaged once per attempt (distinct rreqids).
    engagements = [key for key in net.protocols[1].rreq_cache if key[0] == 0]
    assert len(engagements) == 3  # initial + 2 retries


def test_discovery_timer_cleared_on_success():
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    net.send(0, 2)
    net.run(3.0)
    protocol = net.protocols[0]
    assert protocol.discoveries == {}
    # No stray timers: draining the queue fires nothing new for dst 2.
    rreqs = net.metrics.control_initiated.get("rreq", 0)
    net.run(10.0)
    assert net.metrics.control_initiated.get("rreq", 0) == rreqs


def test_concurrent_discoveries_to_different_destinations():
    net = Network(LdrProtocol, StaticPlacement.grid(3, 3, 200.0))
    net.send(0, 8)
    net.send(0, 6)
    net.send(0, 2)
    assert len(net.protocols[0].discoveries) == 3
    net.run(5.0)
    assert len(net.delivered_to(8)) == 1
    assert len(net.delivered_to(6)) == 1
    assert len(net.delivered_to(2)) == 1
    assert net.protocols[0].discoveries == {}


def test_duplicate_send_does_not_start_second_computation():
    net = Network(LdrProtocol, StaticPlacement.line(3, 200.0))
    net.send(0, 2)
    comp = net.protocols[0].discoveries[2]
    net.send(0, 2)
    assert net.protocols[0].discoveries[2] is comp
    net.run(3.0)
    assert len(net.delivered_to(2)) == 2  # both buffered packets flushed
