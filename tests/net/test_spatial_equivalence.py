"""Property suite: grid and scan backends are observationally identical.

Seeded-random sweeps build the *same* world twice — once per backend —
and compare every observable the channel exposes: ``neighbors_of`` sets
and order, ``in_range``, and full ``transmit`` logs (coverage, NAV,
gray-zone RNG outcomes) under crash and link-blackout overlays.  Each
case is derived from a single ``random.Random`` seed, so a failure
reproduces from the printed trial number.

The quick sweep runs in tier-1; a larger one is marked ``slow``.
"""

import math
import random

import pytest

from repro.mobility import RandomWaypoint, StaticPlacement
from repro.net import Node, WirelessChannel
from repro.net.packet import Frame, Packet
from repro.net.spatial import LIST_BLOCK
from repro.sim import Simulator

RANGE = 275.0


def _random_static_positions(rng, num_nodes):
    """Random cluster layout with adversarial exact-boundary pairs."""
    positions = {}
    for nid in range(num_nodes):
        positions[nid] = (rng.uniform(-300.0, 1500.0),
                          rng.uniform(-300.0, 900.0))
    # Pin some pairs to the exact unit-disk boundary (distance == range)
    # and just past it — the cases where cell rounding could disagree.
    boundary_pairs = min(num_nodes // 2, 4)
    for k in range(boundary_pairs):
        a, b = 2 * k, 2 * k + 1
        ax, ay = positions[a]
        eps = rng.choice([0.0, 0.0, 1e-9, -1e-9])
        positions[b] = (ax + RANGE + eps, ay)
    return positions


def _build_world(index, mobility_factory, seed, gray_zone=0.0):
    sim = Simulator(seed=seed)
    mobility = mobility_factory(sim)
    channel = WirelessChannel(sim, mobility, transmission_range=RANGE,
                              gray_zone=gray_zone, index=index)
    nodes = {nid: Node(sim, nid, channel) for nid in mobility.node_ids()}
    return sim, channel, nodes


def _apply_overlays(rng, channel, nodes):
    """Crash some nodes and deny some links, identically derivable."""
    ids = sorted(nodes)
    for nid in ids:
        if rng.random() < 0.2:
            nodes[nid].alive = False
    for _ in range(len(ids) // 2):
        a, b = rng.sample(ids, 2)
        channel.deny_link(a, b)


def _compare_worlds(case_seed, mobility_factory, times, label):
    worlds = {}
    for index in ("scan", "grid"):
        rng = random.Random(case_seed)  # identical overlay derivation
        sim, channel, nodes = _build_world(index, mobility_factory,
                                           seed=case_seed & 0x7FFFFFFF)
        _apply_overlays(rng, channel, nodes)
        worlds[index] = (sim, channel, nodes)
    _, scan_channel, scan_nodes = worlds["scan"]
    _, grid_channel, _ = worlds["grid"]
    ids = sorted(scan_nodes)
    for t in times:
        for nid in ids:
            scan = scan_channel.neighbors_of(nid, at_time=t)
            grid = grid_channel.neighbors_of(nid, at_time=t)
            assert grid == scan, (
                "%s: neighbors_of(%d, t=%g) diverged: scan=%s grid=%s"
                % (label, nid, t, scan, grid))
        pair_rng = random.Random(case_seed ^ 0x5A5A)
        for _ in range(3 * len(ids)):
            a, b = pair_rng.sample(ids, 2)
            assert (scan_channel.in_range(a, b, at_time=t)
                    == grid_channel.in_range(a, b, at_time=t)), (
                "%s: in_range(%d, %d, t=%g) diverged" % (label, a, b, t))


def _sweep(master_seed, cases, slow_times=4):
    master = random.Random(master_seed)
    for trial in range(cases):
        case_seed = master.randrange(1, 2 ** 31)
        case_rng = random.Random(case_seed)
        num_nodes = case_rng.randrange(2, 36)
        mobile = case_rng.random() < 0.5
        if mobile:
            pause = case_rng.choice([0.0, 0.0, 5.0])

            def mobility_factory(sim, n=num_nodes, p=pause):
                return RandomWaypoint(
                    n, 1400.0, 500.0, pause_time=p, duration=40.0,
                    rng=sim.stream("mobility"))

            times = [case_rng.uniform(0.0, 40.0) for _ in range(slow_times)]
        else:
            positions = _random_static_positions(case_rng, num_nodes)

            def mobility_factory(sim, pos=positions):
                return StaticPlacement(pos)

            times = [0.0, case_rng.uniform(0.0, 40.0)]
        label = "trial %d (seed %d, n=%d, %s)" % (
            trial, case_seed, num_nodes, "waypoint" if mobile else "static")
        _compare_worlds(case_seed, mobility_factory, times, label)


def test_equivalence_sweep_quick():
    _sweep(master_seed=20030713, cases=12)


@pytest.mark.slow
def test_equivalence_sweep_large():
    _sweep(master_seed=19991231, cases=120, slow_times=8)


def test_equivalence_across_candidate_list_blocks():
    # Enough nodes that the all-pairs list screen runs in several row
    # blocks, with a ragged last block.
    num_nodes = 2 * LIST_BLOCK + 7

    def mobility_factory(sim):
        return RandomWaypoint(num_nodes, 4000.0, 900.0, pause_time=0.0,
                              duration=20.0, rng=sim.stream("mobility"))

    _compare_worlds(4242, mobility_factory, [0.5, 1.0, 7.25],
                    "n=%d" % num_nodes)


def _snapshot_edge_times(t0, limit):
    """The times exactly ``limit`` after and before ``t0`` that still
    pass the snapshot's ``|t - t0| <= limit`` test (float-rounded
    inward when ``t0 ± limit`` overshoots)."""
    edges = []
    for t in (t0 + limit, t0 - limit):
        while abs(t - t0) > limit:
            t = math.nextafter(t, t0)
        edges.append(t)
    return edges


def _skin_edge_sweep(master_seed, cases):
    """Grid vs scan at the instants where the candidate-list skin is
    tightest: one snapshot built at ``t0``, then every node queried at
    ``t0 ± bucket_limit``, where worst-case drift has used up the whole
    allowance.  Every leg runs at ``max_speed`` so real drift hits it."""
    master = random.Random(master_seed)
    for trial in range(cases):
        case_seed = master.randrange(1, 2 ** 31)
        case_rng = random.Random(case_seed)
        num_nodes = case_rng.randrange(2, 36)
        speed = case_rng.choice([5.0, 20.0, 40.0])
        pause = case_rng.choice([0.0, 0.0, 5.0])

        def mobility_factory(sim, n=num_nodes, v=speed, p=pause):
            return RandomWaypoint(n, 1400.0, 500.0, min_speed=v,
                                  max_speed=v, pause_time=p, duration=40.0,
                                  rng=sim.stream("mobility"))

        worlds = {index: _build_world(index, mobility_factory,
                                      seed=case_seed & 0x7FFFFFFF)[1].index
                  for index in ("scan", "grid")}
        grid = worlds["grid"]
        limit = grid._bucket_limit
        t0 = case_rng.uniform(limit, 40.0 - limit)
        grid.near(0, t0)  # the one snapshot every query below reuses
        label = "trial %d (seed %d, n=%d, v=%g)" % (
            trial, case_seed, num_nodes, speed)
        for t in _snapshot_edge_times(t0, limit) + [t0]:
            for nid in range(num_nodes):
                scan = worlds["scan"].near(nid, t)
                assert grid.near(nid, t) == scan, (
                    "%s: near(%d, t0%+g) diverged" % (label, nid, t - t0))
        assert grid.builds == 1, label


def test_equivalence_at_snapshot_edges_quick():
    _skin_edge_sweep(master_seed=20030714, cases=12)


@pytest.mark.slow
def test_equivalence_at_snapshot_edges_large():
    _skin_edge_sweep(master_seed=19991230, cases=150)


def test_transmit_streams_identical_under_gray_zone_and_faults():
    """Drive real transmissions through both worlds and compare the full
    observable log: per-transmit coverage lists and every decoded frame.
    Gray-zone losses draw from the channel RNG stream, so identical logs
    prove the draw *order* is identical too."""

    def mobility_factory(sim):
        return RandomWaypoint(16, 1000.0, 400.0, pause_time=0.0,
                              duration=30.0, rng=sim.stream("mobility"))

    logs = {}
    for index in ("scan", "grid"):
        sim, channel, nodes = _build_world(index, mobility_factory,
                                           seed=77, gray_zone=0.25)
        log = []
        channel.observers.append(
            lambda s, f, rids, log=log: log.append(("tx", s, tuple(rids))))
        for nid, node in nodes.items():
            node.mac.receive_fn = (
                lambda packet, from_id, nid=nid, log=log:
                log.append(("rx", nid, from_id)))
        nodes[3].alive = False
        channel.deny_link(0, 1)

        def send(sender, dst, channel=channel, sim=sim):
            channel.transmit(Frame(Packet(), sender=sender, link_dst=dst),
                             duration=1e-3)

        seq_rng = random.Random(4242)
        at = 0.1
        for _ in range(60):
            sender = seq_rng.randrange(16)
            dst = seq_rng.choice([None, seq_rng.randrange(16)])
            sim.schedule_at(at, send, sender, dst)
            at += seq_rng.uniform(0.005, 0.2)
        sim.run(until=at + 1.0)
        logs[index] = log
    assert logs["grid"] == logs["scan"]
    assert any(entry[0] == "rx" for entry in logs["grid"])
