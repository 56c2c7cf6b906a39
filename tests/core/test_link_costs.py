"""Weighted link costs in LDR (the paper's 'positive symmetric costs').

Hop count is the unit-cost special case; these tests exercise LDR with
explicit per-link costs and verify routing prefers cheap multi-hop paths,
and that the loop-freedom invariants hold unchanged.
"""

import pytest

from repro.core import LdrConfig, LdrProtocol
from repro.faults import InvariantMonitor
from repro.mobility import StaticPlacement
from repro.routing.costs import DistanceCost, HopCost, TableCost
from tests.conftest import Network


def test_hop_cost_is_unit():
    cost = HopCost()
    assert cost(0, 1) == 1
    assert cost(5, 9) == 1


def test_table_cost_symmetric_with_default():
    cost = TableCost({(0, 1): 5, (1, 2): 2})
    assert cost(0, 1) == 5
    assert cost(1, 0) == 5
    assert cost(1, 2) == 2
    assert cost(0, 9) == 1  # default


def test_table_cost_rejects_nonpositive():
    with pytest.raises(ValueError):
        TableCost({(0, 1): 0})


def test_distance_cost_grows_with_separation():
    placement = StaticPlacement({0: (0, 0), 1: (50, 0), 2: (270, 0)})
    cost = DistanceCost(placement, transmission_range=275.0, extra=3)
    assert cost(0, 1) < cost(0, 2)
    assert cost(0, 1) >= 1


def test_ldr_adopts_cheaper_advertisement_under_ndc():
    """Triangle: the direct link 0-2 costs 10, the 0-1-2 detour costs 2.

    Discovery finds the direct (expensive) route first — replies follow
    the flood tree, which is cost-blind.  A subsequent advertisement from
    node 1 (distance 1, link cost 1 -> total 2 < fd 10) is then accepted
    by NDC, moving the successor onto the cheap path.
    """
    from repro.core.messages import LdrRrep

    placement = StaticPlacement({0: (0, 0), 1: (130, 0), 2: (260, 0)})
    cost = TableCost({(0, 2): 10, (0, 1): 1, (1, 2): 1})
    net = Network(LdrProtocol, placement,
                  config=LdrConfig(link_cost=cost))
    net.send(0, 2)
    net.run(3.0)
    assert len(net.delivered_to(2)) == 1
    protocol = net.protocols[0]
    entry = protocol.table[2]
    assert entry.next_hop == 2
    assert entry.dist == 10  # the direct link's weight, not hop count

    # Node 1 now advertises its (cheap) route: NDC accepts 1 + 1 < fd 10.
    protocol.on_packet(
        LdrRrep(dst=2, sn_dst=entry.seqno, src=0, rreqid=99, dist=1,
                lifetime=10.0), from_id=1)
    entry = protocol.table[2]
    assert entry.next_hop == 1
    assert entry.dist == 2
    assert entry.fd == 2


def test_weighted_distances_accumulate_in_labels():
    placement = StaticPlacement.line(4, 200.0)
    cost = TableCost({(0, 1): 2, (1, 2): 3, (2, 3): 4})
    net = Network(LdrProtocol, placement,
                  config=LdrConfig(link_cost=cost))
    net.send(0, 3)
    net.run(3.0)
    assert net.protocols[0].table[3].dist == 9
    assert net.protocols[1].table[3].dist == 7
    assert net.protocols[2].table[3].dist == 4


def test_loop_freedom_holds_with_weighted_costs():
    placement = StaticPlacement.grid(3, 3, 200.0)
    cost = TableCost({(0, 1): 4, (1, 2): 1, (3, 4): 7, (4, 5): 2,
                      (0, 3): 2, (1, 4): 3}, default=2)
    net = Network(LdrProtocol, placement,
                  config=LdrConfig(link_cost=cost), seed=8)
    monitor = InvariantMonitor(net.sim, net.protocols, check_ordering=True,
                               strict=True).install()
    for src, dst in ((0, 8), (2, 6), (6, 2)):
        net.send(src, dst)
    net.run(3.0)
    net.placement.move(4, 50_000.0, 0.0)
    net.send(0, 8)
    net.run(6.0)
    assert monitor.checks_run > 0
    assert monitor.violations == []


def test_unit_cost_default_matches_hop_count():
    net = Network(LdrProtocol, StaticPlacement.line(4, 200.0),
                  config=LdrConfig())
    net.send(0, 3)
    net.run(3.0)
    assert net.protocols[0].table[3].dist == 3
