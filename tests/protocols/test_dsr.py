"""Behavioural tests for the DSR baseline."""

from repro.mobility import StaticPlacement
from repro.protocols.dsr import DsrConfig, DsrProtocol
from tests.conftest import Network


def _line(count=4, config=None, seed=1):
    return Network(DsrProtocol, StaticPlacement.line(count, 200.0),
                   config=config, seed=seed)


def test_discovery_and_source_routed_delivery():
    net = _line(4)
    net.send(0, 3)
    net.run(5.0)
    delivered = net.delivered_to(3)
    assert len(delivered) == 1
    assert delivered[0].source_route == [0, 1, 2, 3]


def test_origin_caches_discovered_route():
    net = _line(4)
    net.send(0, 3)
    net.run(5.0)
    assert net.protocols[0].cache.lookup(3) == [0, 1, 2, 3]


def test_relays_learn_route_suffix_from_rrep():
    net = _line(4)
    net.send(0, 3)
    net.run(5.0)
    # Relay 1 saw the RREP carrying [0,1,2,3]; it caches its suffix.
    assert net.protocols[1].cache.lookup(3) == [1, 2, 3]


def test_cached_route_skips_discovery():
    net = _line(4)
    net.send(0, 3)
    net.run(5.0)
    rreqs = net.metrics.control_transmissions["rreq"]
    net.send(0, 3)
    net.run(5.0)
    assert len(net.delivered_to(3)) == 2
    assert net.metrics.control_transmissions["rreq"] == rreqs  # no new flood


def test_cache_reply_by_intermediate():
    net = _line(5)
    net.send(0, 4)
    net.run(5.0)
    # Node 1 now caches [1,2,3,4].  A fresh discovery by a new node that
    # reaches node 1 can be answered from cache: force node 0 to forget.
    net.protocols[0].cache._routes.clear()
    rreqs_before = net.metrics.control_transmissions["rreq"]
    net.send(0, 4)
    net.run(5.0)
    assert len(net.delivered_to(4)) == 2
    # Non-propagating first attempt (TTL 1) sufficed: at most one RREQ tx.
    assert net.metrics.control_transmissions["rreq"] - rreqs_before <= 1


def test_broken_link_rerr_and_cache_pruning():
    net = _line(4)
    net.send(0, 3)
    net.run(1.0)
    assert net.protocols[0].cache.lookup(3) is not None
    net.placement.move(3, 90000.0, 0.0)
    net.send(0, 3)
    net.run(8.0)
    # Node 2 (break detector) pruned the link; the RERR reached node 0.
    assert net.protocols[2].cache.lookup(3) is None
    assert net.protocols[0].cache.lookup(3) is None


def test_salvage_uses_alternate_route():
    # Diamond: 0-1-3 and 0-2-3; break 1-3 after caching both at node 0.
    placement = StaticPlacement({0: (0, 0), 1: (200, 0), 2: (0, 200),
                                 3: (200, 200)})
    net = Network(DsrProtocol, placement)
    net.send(0, 3)
    net.run(2.0)
    assert len(net.delivered_to(3)) == 1


def test_no_route_gives_up_after_retries():
    placement = StaticPlacement({0: (0, 0), 1: (200, 0), 2: (9000, 0)})
    config = DsrConfig(rreq_retries=2, discovery_timeout=0.2,
                       max_discovery_timeout=0.5)
    net = Network(DsrProtocol, placement, config=config)
    net.send(0, 2)
    net.run(10.0)
    assert net.delivered_to(2) == []
    assert net.metrics.data_dropped["no_route_found"] == 1


def test_rreq_does_not_revisit_nodes():
    """Accumulated routes never contain a node twice (loop-free replies)."""
    net = Network(DsrProtocol, StaticPlacement.grid(3, 3, 200.0))
    net.send(0, 8)
    net.send(2, 6)
    net.run(5.0)
    for protocol in net.protocols.values():
        for entries in protocol.cache._routes.values():
            for _, route in entries:
                assert len(set(route)) == len(route)


def test_stale_cache_is_dsr_weakness():
    """After mobility invalidates a cached route, DSR still tries it and
    fails on first use — the behaviour behind the paper's DSR results."""
    net = _line(4)
    net.send(0, 3)
    net.run(1.0)
    net.placement.move(3, 90000.0, 0.0)
    # Cache still claims a route exists.
    assert net.protocols[0].cache.lookup(3) is not None
    net.send(0, 3)
    net.run(0.05)
    # The packet went straight out on the stale source route (no discovery
    # started yet).
    assert net.protocols[0].discoveries == {}
