"""Empirical verification of Theorem 4: LDR is loop-free at every instant.

A strict invariant monitor audits the union of all routing tables after
*every* table change; any cycle — or violation of the Theorem-2 ordering
criterion — raises immediately.  These tests drive the protocol through
randomized mobile scenarios and adversarial churn; they are the
test-suite's teeth.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LdrProtocol
from repro.experiments import ScenarioConfig, build_scenario
from repro.faults import InvariantMonitor
from repro.mobility import StaticPlacement
from tests.conftest import Network


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_mobile_scenario_never_loops(seed):
    scenario = build_scenario(ScenarioConfig(
        protocol="ldr", num_nodes=14, width=900.0, height=300.0,
        num_flows=4, duration=12.0, pause_time=0.0, max_speed=25.0,
        seed=seed,
    ))
    monitor = InvariantMonitor(scenario.sim, scenario.protocols,
                               check_ordering=True, strict=True).install()
    scenario.run()  # the strict monitor raises on any violation
    assert monitor.checks_run > 0
    assert monitor.violations == []


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    moves=st.lists(
        st.tuples(st.integers(0, 8), st.floats(0, 800), st.floats(0, 400)),
        min_size=1, max_size=6,
    ),
)
def test_property_adversarial_teleport_churn(seed, moves):
    """Teleport nodes mid-run while traffic flows; tables must stay acyclic
    and ordered throughout."""
    placement = StaticPlacement.grid(3, 3, spacing=200.0)
    net = Network(LdrProtocol, placement, seed=seed)
    InvariantMonitor(net.sim, net.protocols, check_ordering=True,
                     strict=True).install()
    rng = random.Random(seed)

    # Continuous traffic between random pairs.
    pairs = [(rng.randrange(9), rng.randrange(9)) for _ in range(4)]
    for src, dst in pairs:
        if src != dst:
            net.send(src, dst)
    net.run(1.0)
    for node, x, y in moves:
        net.placement.move(node, x, y)
        for src, dst in pairs:
            if src != dst:
                net.send(src, dst)
        net.run(1.5)
    net.run(5.0)


def test_repeated_break_and_rediscover_cycle():
    """Break the same path over and over; invariants must hold every time."""
    placement = StaticPlacement.line(6, spacing=200.0)
    net = Network(LdrProtocol, placement, seed=3)
    monitor = InvariantMonitor(net.sim, net.protocols, check_ordering=True,
                               strict=True).install()
    for round_no in range(6):
        # Restore the line, send, then break a middle link.
        net.placement.move(3, 600.0, 0.0)
        net.send(0, 5)
        net.run(2.0)
        net.placement.move(3, 600.0, 50_000.0)
        net.send(0, 5)
        net.run(3.0)
    assert monitor.checks_run > 10
    assert monitor.violations == []


def test_simultaneous_discoveries_for_same_destination():
    """Multiple nodes going active for the same destination concurrently
    (Lemmas 4/5) must not interfere or create loops."""
    placement = StaticPlacement.grid(4, 4, spacing=200.0)
    net = Network(LdrProtocol, placement, seed=5)
    InvariantMonitor(net.sim, net.protocols, check_ordering=True,
                     strict=True).install()
    dst = 15
    sources = (0, 1, 4, 5, 2, 8)
    for _ in range(3):
        for src in sources:
            net.send(src, dst)
        net.run(2.0)
    net.run(4.0)
    delivered = net.delivered_to(dst)
    # Six synchronized floods collide heavily; with ongoing traffic every
    # source must still get packets through, and most packets arrive.
    assert len(delivered) >= 14
    assert {p.src for p in delivered} == set(sources)


def test_fd_monotone_nonincreasing_for_fixed_sn():
    """Procedure 3: for a fixed sequence number, a node's feasible distance
    never increases over time."""
    placement = StaticPlacement.grid(3, 3, spacing=200.0)
    net = Network(LdrProtocol, placement, seed=9)
    history = {}  # (node, dst) -> list of (sn, fd)

    def snoop(protocol, dst):
        entry = protocol.table.get(dst)
        if entry is not None and entry.seqno is not None:
            history.setdefault((protocol.node_id, dst), []).append(
                (entry.seqno, entry.fd)
            )

    for protocol in net.protocols.values():
        protocol.table_change_hook = snoop

    for src, dst in ((0, 8), (2, 6), (3, 8), (1, 8)):
        net.send(src, dst)
    net.run(2.0)
    net.placement.move(4, 50_000.0, 0.0)
    for src, dst in ((0, 8), (2, 6), (3, 8)):
        net.send(src, dst)
    net.run(5.0)

    assert history
    for samples in history.values():
        for (sn_a, fd_a), (sn_b, fd_b) in zip(samples, samples[1:]):
            assert sn_b >= sn_a, "sequence numbers must be non-decreasing"
            if sn_b == sn_a:
                assert fd_b <= fd_a, "fd must not increase for a fixed sn"
