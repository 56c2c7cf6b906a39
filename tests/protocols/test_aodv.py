"""Behavioural tests for the AODV baseline."""

from repro.faults import InvariantMonitor
from repro.mobility import StaticPlacement
from repro.protocols.aodv import AodvConfig, AodvProtocol
from repro.protocols.aodv.messages import AodvRreq
from tests.conftest import Network


def _line(count=4, config=None, seed=1):
    return Network(AodvProtocol, StaticPlacement.line(count, 200.0),
                   config=config, seed=seed)


def test_discovery_and_delivery():
    net = _line(4)
    net.send(0, 3)
    net.run(5.0)
    assert len(net.delivered_to(3)) == 1
    entry = net.protocols[0].table[3]
    assert entry.valid
    assert entry.hops == 3
    assert entry.next_hop == 1


def test_source_increments_own_seq_per_discovery():
    net = _line(3)
    assert net.protocols[0].own_seq == 0
    net.send(0, 2)
    net.run(5.0)
    assert net.protocols[0].own_seq >= 1


def test_destination_increments_before_reply():
    net = _line(3)
    net.send(0, 2)
    net.run(5.0)
    assert net.protocols[2].own_seq >= 1


def test_reverse_route_built():
    net = _line(4)
    net.send(0, 3)
    net.run(5.0)
    entry = net.protocols[2].table.get(0)
    assert entry is not None and entry.next_hop == 1


def test_buffered_packets_flushed_after_discovery():
    net = _line(4)
    for _ in range(4):
        net.send(0, 3)
    net.run(5.0)
    assert len(net.delivered_to(3)) == 4


def test_route_break_increments_destination_seq():
    """The AODV behaviour LDR removes: a relay bumps D's number on break."""
    net = _line(4)
    net.send(0, 3)
    net.run(1.0)
    seq_before = net.protocols[2].table[3].seq
    net.placement.move(3, 90000.0, 0.0)
    net.send(0, 3)
    net.run(5.0)
    entry = net.protocols[2].table[3]
    assert not entry.valid
    assert entry.seq > seq_before


def test_rerr_propagates_and_invalidates():
    net = _line(5)
    net.send(0, 4)
    net.run(1.0)
    net.placement.move(4, 90000.0, 0.0)
    net.send(0, 4)
    net.run(6.0)
    assert not net.protocols[1].table[4].valid


def test_intermediate_reply_with_fresh_route():
    net = _line(5)
    net.send(0, 4)
    net.run(1.0)
    rreps_before = net.metrics.control_initiated.get("rrep", 0)
    # Node 2 holds a fresh active route; a new discovery from node 0 with
    # its stored (older-or-equal) seq can be answered downstream.
    net.protocols[0].table[4].valid = False
    net.send(0, 4)
    net.run(1.0)
    assert len(net.delivered_to(4)) == 2
    assert net.metrics.control_initiated["rrep"] > rreps_before


def test_stale_intermediate_cannot_reply():
    """A node with an older destination seq must forward, not answer —
    the inhibition LDR's Section 1 describes."""
    net = _line(4)
    net.send(0, 3)
    net.run(1.0)
    # Simulate a break at node 0: it bumps its stored seq for 3.
    protocol = net.protocols[0]
    entry = protocol.table[3]
    entry.valid = False
    entry.seq += 5  # far beyond anything node 1/2 have stored
    net.send(0, 3)
    net.run(5.0)
    # Only the destination itself could answer (its reply carries a number
    # at least as large as the request's).
    assert len(net.delivered_to(3)) == 2
    assert net.protocols[0].table[3].seq >= entry.seq


def test_expanding_ring_reaches_far_destination():
    net = _line(7, config=AodvConfig(ttl_start=1, ttl_increment=1,
                                     ttl_threshold=2, net_diameter=12))
    net.send(0, 6)
    net.run(10.0)
    assert len(net.delivered_to(6)) == 1
    assert net.metrics.control_initiated["rreq"] > 1


def test_duplicate_rreqs_ignored():
    net = _line(3)
    protocol = net.protocols[1]
    rreq = AodvRreq(src=0, src_seq=1, rreq_id=5, dst=2, dst_seq=0,
                    unknown_seq=True, hop_count=0, ttl=5)
    protocol.on_packet(rreq, from_id=0)
    tx_after_first = net.metrics.control_transmissions.get("rreq", 0)
    protocol.on_packet(rreq.copy(), from_id=0)
    net.run(1.0)
    # The duplicate triggered no second relay (one rebroadcast only).
    assert net.metrics.control_transmissions.get("rreq", 0) <= tx_after_first + 1


def test_no_route_found_drops_buffer():
    placement = StaticPlacement({0: (0, 0), 1: (200, 0), 2: (9000, 0)})
    net = Network(AodvProtocol, placement)
    net.send(0, 2)
    net.run(30.0)
    assert net.delivered_to(2) == []
    assert net.metrics.data_dropped["no_route_found"] == 1


def test_aodv_successor_graph_acyclic_under_churn():
    placement = StaticPlacement.grid(3, 3, spacing=200.0)
    net = Network(AodvProtocol, placement, seed=2)
    monitor = InvariantMonitor(net.sim, net.protocols, check_ordering=False,
                               strict=True).install()
    net.send(0, 8)
    net.send(6, 2)
    net.run(2.0)
    net.placement.move(4, 50000.0, 0.0)
    net.send(0, 8)
    net.run(5.0)
    assert monitor.checks_run > 0


def test_own_sequence_value_reported():
    net = _line(3)
    net.send(0, 2)
    net.run(3.0)
    assert net.protocols[2].own_sequence_value() == net.protocols[2].own_seq
