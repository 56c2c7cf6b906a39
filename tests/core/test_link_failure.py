"""The MAC retry-exhaustion path, tested directly.

When unicast retries run out, the MAC reports a link failure upward;
LDR's ``_on_data_link_failure`` must invalidate every route through the
dead next hop and broadcast a RERR — the hello-free link-break detection
the on-demand protocols rely on (Section 3.3).
"""

from repro.core import LdrProtocol
from repro.mobility import StaticPlacement
from tests.conftest import Network


def _established_line(count):
    net = Network(LdrProtocol, StaticPlacement.line(count, 200.0))
    net.send(0, count - 1)
    net.run(1.0)
    assert len(net.delivered_to(count - 1)) == 1
    return net


def test_retry_exhaustion_invalidates_route_and_sends_rerr():
    net = _established_line(3)
    assert net.protocols[0].table[2].valid
    give_ups = net.metrics.mac_give_ups
    rerrs = net.metrics.control_initiated.get("rerr", 0)
    net.nodes[1].crash()  # next hop dies silently: no RERR from *it*
    net.send(0, 2)
    net.run(2.0)  # enough for 7 retries + backoff to exhaust
    assert net.metrics.mac_give_ups > give_ups  # the MAC did give up
    assert not net.protocols[0].table[2].valid  # route torn down
    assert net.metrics.control_initiated.get("rerr", 0) > rerrs


def test_originator_buffers_and_rediscovers_after_link_failure():
    net = _established_line(3)
    net.nodes[1].crash()
    net.send(0, 2)
    net.run(2.0)
    # We originated the packet, so it is parked while discovery retries
    # (the line is cut, so discovery cannot succeed — the packet must be
    # buffered or eventually dropped, never silently lost).
    protocol = net.protocols[0]
    assert (protocol.buffer.pending(2) > 0
            or net.metrics.data_dropped.get("no_route_found", 0) > 0
            or net.metrics.data_dropped.get("buffer_full", 0) > 0)
    assert 2 in protocol.discoveries or protocol.buffer.pending(2) == 0


def test_forwarder_drops_with_link_break_reason():
    net = _established_line(4)
    net.nodes[2].crash()  # node 1 now forwards into a dead next hop
    drops = net.metrics.data_dropped.get("link_break", 0)
    net.send(0, 3)
    net.run(2.5)
    assert net.metrics.data_dropped.get("link_break", 0) > drops
    assert not net.protocols[1].table[3].valid


def test_all_routes_through_dead_hop_are_invalidated():
    # Node 1 relays toward both 2 and 3; one link failure must break both.
    net = Network(LdrProtocol, StaticPlacement.line(4, 200.0))
    net.send(0, 2)
    net.send(0, 3)
    net.run(1.5)
    table = net.protocols[0].table
    assert table[2].valid and table[3].valid
    assert table[2].next_hop == 1 and table[3].next_hop == 1
    net.nodes[1].crash()
    net.send(0, 3)  # one failed forward triggers _invalidate_via(1)
    net.run(2.0)
    assert not table[2].valid
    assert not table[3].valid
