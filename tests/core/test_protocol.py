"""Behavioural tests for the LDR protocol engine on small static networks."""

import pytest

from repro.core import LdrConfig, LdrProtocol
from repro.core.messages import LdrRreq
from repro.faults import InvariantMonitor
from repro.mobility import StaticPlacement
from tests.conftest import Network


def _line(count=4, config=None, seed=1, spacing=200.0):
    net = Network(LdrProtocol, StaticPlacement.line(count, spacing),
                  config=config, seed=seed)
    return net


def test_discovery_and_delivery_on_line():
    net = _line(4)
    net.send(0, 3)
    net.run(5.0)
    assert len(net.delivered_to(3)) == 1
    # The source now has an active route with the right distance labels.
    entry = net.protocols[0].table[3]
    assert entry.valid
    assert entry.dist == 3
    assert entry.fd <= entry.dist
    assert entry.next_hop == 1


def test_delivery_to_direct_neighbor():
    net = _line(2)
    net.send(0, 1)
    net.run(2.0)
    assert len(net.delivered_to(1)) == 1


def test_local_delivery_without_network():
    net = _line(2)
    net.send(0, 0)
    assert len(net.delivered_to(0)) == 1
    assert net.metrics.control_transmissions == {}


def test_packets_buffered_during_discovery_all_delivered():
    net = _line(4)
    for _ in range(5):
        net.send(0, 3)
    net.run(5.0)
    assert len(net.delivered_to(3)) == 5


def test_no_route_to_partitioned_destination():
    placement = StaticPlacement({0: (0, 0), 1: (200, 0), 2: (5000, 0)})
    net = Network(LdrProtocol, placement)
    net.send(0, 2)
    net.run(30.0)
    assert net.delivered_to(2) == []
    assert net.metrics.data_dropped["no_route_found"] == 1
    # Discovery gave up: no active computation left.
    assert net.protocols[0].discoveries == {}


def test_expanding_ring_widens_ttl():
    """A far destination is found even though the first ring is short."""
    net = _line(7, config=LdrConfig(ttl_start=1, ttl_increment=2,
                                    ttl_threshold=3, net_diameter=10))
    net.send(0, 6)
    net.run(10.0)
    assert len(net.delivered_to(6)) == 1
    # More than one RREQ was initiated (ring expansions).
    assert net.metrics.control_initiated["rreq"] > 1


def test_intermediate_node_with_active_route_replies():
    net = _line(5)
    net.send(0, 4)
    net.run(1.0)
    rreqs_before = net.metrics.control_transmissions["rreq"]
    # Nodes 1..3 hold active routes to 4; when node 0 re-discovers, a
    # downstream node may answer without re-flooding the whole network —
    # provided the invariants allow it.
    net.protocols[0].table[4].invalidate()
    net.send(0, 4)
    net.run(1.0)
    assert len(net.delivered_to(4)) == 2
    rreqs_after = net.metrics.control_transmissions["rreq"]
    # The second discovery should cost at most a couple of transmissions.
    assert rreqs_after - rreqs_before <= 4


def test_sequence_numbers_only_incremented_by_destination():
    net = _line(5)
    net.send(0, 4)
    net.run(5.0)
    for node_id, protocol in net.protocols.items():
        if node_id != 4:
            assert protocol.own_seq_increments == 0


def test_reverse_route_built_by_rreq():
    net = _line(4)
    net.send(0, 3)
    net.run(5.0)
    # Relay 1 learned a route back to the RREQ origin 0.
    entry = net.protocols[1].table.get(0)
    assert entry is not None
    assert entry.next_hop == 0
    assert entry.dist == 1


def test_route_error_on_broken_link_invalidates_upstream():
    net = _line(4)
    net.send(0, 3)
    net.run(1.0)
    assert net.protocols[0].table[3].valid
    # Break the link 2-3 by moving node 3 far away, then send again while
    # the route is still within its lifetime so data actually flows.
    net.placement.move(3, 50000.0, 0.0)
    net.send(0, 3)
    net.run(10.0)
    # Node 2 detected the break via MAC feedback and invalidated.
    entry = net.protocols[2].table[3]
    assert not entry.valid
    assert net.metrics.mac_give_ups >= 1


def test_feasible_distance_never_exceeds_distance():
    net = _line(6)
    net.send(0, 5)
    net.send(2, 5)
    net.run(5.0)
    for protocol in net.protocols.values():
        for entry in protocol.table.values():
            assert entry.fd <= entry.dist


def test_data_hop_limit_drops_runaway_packets():
    # hop limit 1 allows one relay; a 3-hop path must be dropped en route.
    net = _line(4, config=LdrConfig(data_hop_limit=1))
    net.send(0, 3)
    net.run(5.0)
    assert net.delivered_to(3) == []
    assert net.metrics.data_dropped["hop_limit"] >= 1


def test_loop_checker_clean_during_churn():
    placement = StaticPlacement.grid(3, 3, spacing=200.0)
    net = Network(LdrProtocol, placement)
    monitor = InvariantMonitor(net.sim, net.protocols, check_ordering=True,
                               strict=True).install()
    net.send(0, 8)
    net.run(3.0)
    net.placement.move(4, 10000.0, 0.0)  # knock out the grid centre
    net.send(0, 8)
    net.send(3, 8)
    net.run(10.0)
    assert monitor.checks_run > 0
    assert monitor.violations == []


def test_request_as_error_invalidates_route():
    """A RREQ for D arriving from our *next hop toward D* signals a break."""
    net = _line(4, config=LdrConfig(request_as_error=True))
    net.send(0, 3)
    net.run(5.0)
    protocol = net.protocols[0]
    assert protocol.table[3].valid
    entry = protocol.table[3]
    # Synthesize a RREQ from node 1 (our next hop to 3) soliciting 3.
    rreq = LdrRreq(dst=3, sn_dst=entry.seqno, rreqid=99, src=1,
                   sn_src=net.protocols[1].own_seq, fd=entry.fd, ttl=3)
    protocol.on_packet(rreq, from_id=1)
    assert not protocol.table[3].valid


def test_request_as_error_disabled():
    net = _line(4, config=LdrConfig(request_as_error=False))
    net.send(0, 3)
    net.run(5.0)
    protocol = net.protocols[0]
    entry = protocol.table[3]
    rreq = LdrRreq(dst=3, sn_dst=entry.seqno, rreqid=99, src=1,
                   sn_src=net.protocols[1].own_seq, fd=entry.fd, ttl=3)
    protocol.on_packet(rreq, from_id=1)
    assert protocol.table[3].valid


def test_reduced_distance_answering_fd():
    config = LdrConfig(reduced_distance_factor=0.8)
    assert config.answering_distance(10) == 8
    assert config.answering_distance(1) == 1  # floor of 1
    assert config.answering_distance(float("inf")) == float("inf")
    off = LdrConfig(reduced_distance_factor=None)
    assert off.answering_distance(10) == 10


def test_min_reply_lifetime_blocks_stale_answer():
    """A node whose route is about to expire must relay, not reply."""
    net = _line(4, config=LdrConfig(min_reply_lifetime=100.0))
    net.send(0, 3)
    net.run(5.0)
    before = net.metrics.control_initiated.get("rrep", 0)
    # With an absurd min lifetime, only the destination can ever answer.
    net.protocols[0].table[3].invalidate()
    net.send(0, 3)
    net.run(5.0)
    assert len(net.delivered_to(3)) == 2


def test_successor_and_route_metric_api():
    net = _line(3)
    net.send(0, 2)
    net.run(5.0)
    protocol = net.protocols[0]
    assert protocol.successor(2) == 1
    sn, fd, dist = protocol.route_metric(2)
    assert dist == 2
    assert fd <= dist
    # Self metrics: distance zero with our own label.
    own_sn, own_fd, own_dist = protocol.route_metric(0)
    assert (own_fd, own_dist) == (0, 0)
    assert protocol.successor(0) is None


def test_rerr_propagates_upstream():
    net = _line(5)
    net.send(0, 4)
    net.run(1.0)
    assert net.protocols[1].table[4].valid
    # Break the last link; node 3 will fail, RERR should reach node 1.
    net.placement.move(4, 90000.0, 0.0)
    net.send(0, 4)
    net.run(10.0)
    assert not net.protocols[1].table[4].valid


def test_config_without_override():
    config = LdrConfig()
    clone = config.without(ttl_start=9)
    assert clone.ttl_start == 9
    assert config.ttl_start == 2
    with pytest.raises(AttributeError):
        config.without(not_a_field=1)
