"""Tests for the LDR multipath extension (loop-free alternates).

Off by default (the PODC'03 protocol is single-path); when enabled, any
neighbor whose advertisement satisfied NDC is retained, and link breaks
fail over to the best alternate without rediscovery — still loop-free,
because alternates are only used while their advertised distance stays
below the feasible distance (Theorem 1 applies verbatim).
"""

from repro.core import LdrConfig, LdrProtocol
from repro.core.messages import LdrRrep
from repro.faults import InvariantMonitor
from repro.mobility import StaticPlacement
from repro.routing.seqnum import LabeledSeq
from tests.conftest import Network

SN = LabeledSeq(0.0, 1)


def _diamond(multipath=True):
    """0 -(1,2)- 3: two disjoint two-hop paths."""
    placement = StaticPlacement({0: (0, 0), 1: (200, 0), 2: (0, 200),
                                 3: (200, 200)})
    return Network(LdrProtocol, placement,
                   config=LdrConfig(multipath=multipath))


def test_alternate_recorded_from_stability_rejected_offer():
    net = _diamond()
    protocol = net.protocols[0]
    net.send(0, 3)
    net.run(2.0)
    entry = protocol.table[3]
    primary = entry.next_hop
    other = 2 if primary == 1 else 1
    # Feed a same-number, same-distance offer from the other branch: the
    # stability rule keeps the primary but must remember the alternate.
    protocol.on_packet(LdrRrep(dst=3, sn_dst=entry.seqno, src=0, rreqid=77,
                               dist=1, lifetime=10.0), from_id=other)
    assert entry.next_hop == primary
    assert other in entry.alternates


def test_failover_switches_without_rediscovery():
    net = _diamond()
    protocol = net.protocols[0]
    net.send(0, 3)
    net.run(2.0)
    entry = protocol.table[3]
    primary = entry.next_hop
    other = 2 if primary == 1 else 1
    protocol.on_packet(LdrRrep(dst=3, sn_dst=entry.seqno, src=0, rreqid=77,
                               dist=1, lifetime=10.0), from_id=other)
    rreqs_before = net.metrics.control_initiated.get("rreq", 0)
    # Simulate MAC feedback: the primary link died.
    broken = protocol._invalidate_via(primary)
    assert broken == []  # nothing invalidated: the alternate took over
    assert entry.valid
    assert entry.next_hop == other
    assert net.metrics.control_initiated.get("rreq", 0) == rreqs_before


def test_failover_respects_feasibility():
    """An alternate whose distance reaches fd is discarded, not used."""
    net = _diamond()
    protocol = net.protocols[0]
    net.send(0, 3)
    net.run(2.0)
    entry = protocol.table[3]
    primary = entry.next_hop
    other = 2 if primary == 1 else 1
    # Plant an infeasible alternate (advertised distance >= fd).
    entry.alternates[other] = (entry.seqno, entry.fd)
    broken = protocol._invalidate_via(primary)
    assert broken == [3]
    assert not entry.valid


def test_alternates_cleared_on_sequence_reset():
    net = _diamond()
    protocol = net.protocols[0]
    net.send(0, 3)
    net.run(2.0)
    entry = protocol.table[3]
    primary = entry.next_hop
    other = 2 if primary == 1 else 1
    protocol.on_packet(LdrRrep(dst=3, sn_dst=entry.seqno, src=0, rreqid=77,
                               dist=1, lifetime=10.0), from_id=other)
    assert entry.alternates
    fresher = entry.seqno.incremented(1.0)
    protocol.on_packet(LdrRrep(dst=3, sn_dst=fresher, src=0, rreqid=78,
                               dist=1, lifetime=10.0), from_id=primary)
    # Old-number alternates are void after the reset.
    assert all(sn == fresher for (sn, _) in entry.alternates.values())


def test_singlepath_default_keeps_no_alternates():
    net = _diamond(multipath=False)
    protocol = net.protocols[0]
    net.send(0, 3)
    net.run(2.0)
    entry = protocol.table[3]
    other = 2 if entry.next_hop == 1 else 1
    protocol.on_packet(LdrRrep(dst=3, sn_dst=entry.seqno, src=0, rreqid=77,
                               dist=1, lifetime=10.0), from_id=other)
    assert entry.alternates == {}


def test_multipath_stays_loop_free_under_churn():
    placement = StaticPlacement.grid(3, 3, 200.0)
    net = Network(LdrProtocol, placement,
                  config=LdrConfig(multipath=True), seed=12)
    monitor = InvariantMonitor(net.sim, net.protocols, check_ordering=True,
                               strict=True).install()
    for src, dst in ((0, 8), (2, 6), (6, 2), (8, 0)):
        net.send(src, dst)
    net.run(3.0)
    net.placement.move(4, 50_000.0, 0.0)
    for src, dst in ((0, 8), (2, 6)):
        net.send(src, dst)
    net.run(6.0)
    assert monitor.checks_run > 0
    assert monitor.violations == []


def test_multipath_improves_or_matches_delivery_under_churn():
    from repro import ScenarioConfig, run_scenario

    base = dict(num_nodes=30, width=1200.0, height=300.0, num_flows=5,
                duration=40.0, pause_time=0.0, seed=19)
    single = run_scenario(ScenarioConfig(protocol="ldr", **base))
    multi = run_scenario(ScenarioConfig(
        protocol="ldr", protocol_config=LdrConfig(multipath=True), **base))
    assert multi.delivery_ratio >= single.delivery_ratio - 0.03
