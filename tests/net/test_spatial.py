"""Unit tests for the spatial-index backends (repro.net.spatial).

The equivalence *property* suite lives in test_spatial_equivalence.py;
this file pins down the mechanics: output ordering, memo/bucket
invalidation, boundary geometry, and the one-lookup-per-node-per-transmit
guarantee the grid gives ``WirelessChannel.transmit``.
"""

import pytest

from repro.mobility import RandomWaypoint, StaticPlacement
from repro.net import Node, WirelessChannel
from repro.net.packet import Frame, Packet
from repro.net.spatial import BUCKET_SLACK, CELL_MARGIN, make_index
from repro.sim import Simulator


def _world(placement, index="grid", transmission_range=275.0, gray_zone=0.0):
    sim = Simulator(seed=3)
    channel = WirelessChannel(sim, placement,
                              transmission_range=transmission_range,
                              gray_zone=gray_zone, index=index)
    nodes = {nid: Node(sim, nid, channel) for nid in placement.node_ids()}
    return sim, channel, nodes


class CountingMobility:
    """Wraps a mobility model, counting position lookups per node.

    Bulk ``positions_at`` calls count once per returned node, so the
    counter measures exactly what the snapshot contract promises: how
    many times the model was consulted about each node.
    """

    def __init__(self, inner):
        self.inner = inner
        self.static = getattr(inner, "static", False)
        self.max_speed = getattr(inner, "max_speed", None)
        self.counts = {}

    @property
    def version(self):
        return getattr(self.inner, "version", 0)

    def position(self, node_id, t):
        self.counts[node_id] = self.counts.get(node_id, 0) + 1
        return self.inner.position(node_id, t)

    def positions_at(self, node_ids, t):
        for node_id in node_ids:
            self.counts[node_id] = self.counts.get(node_id, 0) + 1
        return self.inner.positions_at(node_ids, t)

    def node_ids(self):
        return self.inner.node_ids()

    def reset(self):
        self.counts = {}


# ---------------------------------------------------------------------------
# Construction / registry
# ---------------------------------------------------------------------------

def test_make_index_rejects_unknown_backend():
    sim = Simulator(seed=1)
    placement = StaticPlacement.line(2)
    with pytest.raises(ValueError, match="unknown channel index"):
        make_index("quadtree", sim, placement, 275.0)


def test_channel_rejects_unknown_backend():
    sim = Simulator(seed=1)
    with pytest.raises(ValueError, match="unknown channel index"):
        WirelessChannel(sim, StaticPlacement.line(2), index="nope")


# ---------------------------------------------------------------------------
# Ordering: results come back in channel-attach order, not id order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index_name", ["scan", "grid"])
def test_results_preserve_attach_order(index_name):
    # Attach ids out of numeric order; both backends must echo that order.
    sim = Simulator(seed=1)
    placement = StaticPlacement({7: (0.0, 0.0), 3: (50.0, 0.0),
                                 9: (100.0, 0.0), 1: (150.0, 0.0)})
    index = make_index(index_name, sim, placement, 275.0)
    for nid in (7, 3, 9, 1):
        index.attach(nid)
    assert index.near(7, 0.0) == [3, 9, 1]
    assert index.near(1, 0.0) == [7, 3, 9]


def test_grid_order_matches_scan_when_nodes_span_cells():
    # Spread nodes over several cells so the grid's bucket walk would be
    # geographically ordered without the rank sort.
    sim = Simulator(seed=1)
    positions = {nid: (nid * 260.0, 0.0) for nid in (5, 2, 8, 0, 6, 3)}
    placement = StaticPlacement(positions)
    scan = make_index("scan", sim, placement, 275.0)
    grid = make_index("grid", sim, placement, 275.0)
    for nid in positions:
        scan.attach(nid)
        grid.attach(nid)
    for nid in positions:
        assert grid.near(nid, 0.0) == scan.near(nid, 0.0)


# ---------------------------------------------------------------------------
# Boundary geometry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index_name", ["scan", "grid"])
def test_distance_exactly_range_is_in_range(index_name):
    # The unit disk is closed: distance == range counts.  The grid must
    # find the neighbor even when it sits exactly on a cell boundary.
    placement = StaticPlacement({0: (0.0, 0.0), 1: (275.0, 0.0),
                                 2: (275.0000001, 0.0)})
    sim, channel, nodes = _world(placement, index=index_name)
    assert channel.neighbors_of(0) == [1]
    assert channel.in_range(0, 1)
    assert not channel.in_range(0, 2)


@pytest.mark.parametrize("index_name", ["scan", "grid"])
def test_negative_coordinates(index_name):
    placement = StaticPlacement({0: (-400.0, -400.0), 1: (-350.0, -400.0),
                                 2: (400.0, 400.0)})
    sim, channel, nodes = _world(placement, index=index_name)
    assert channel.neighbors_of(0) == [1]
    assert channel.neighbors_of(2) == []


@pytest.mark.parametrize("index_name", ["scan", "grid"])
def test_zero_range_degenerates_to_colocation(index_name):
    placement = StaticPlacement({0: (10.0, 10.0), 1: (10.0, 10.0),
                                 2: (10.0, 10.1)})
    sim, channel, nodes = _world(placement, index=index_name,
                                 transmission_range=0.0)
    assert channel.neighbors_of(0) == [1]


def test_cell_margin_covers_range_boundary_in_any_cell_phase():
    # Slide an exactly-at-range pair across coordinate phases; the
    # candidate-list screen must never lose the neighbor to rounding.
    sim = Simulator(seed=1)
    for offset in (0.0, 1e-9, 137.4999, 274.999999, 275.0 * CELL_MARGIN):
        placement = StaticPlacement({0: (offset, 0.0),
                                     1: (offset + 275.0, 0.0)})
        grid = make_index("grid", sim, placement, 275.0)
        grid.attach(0)
        grid.attach(1)
        assert grid.near(0, 0.0) == [1], "lost at offset %r" % offset


# ---------------------------------------------------------------------------
# Fault overlays stay in the channel (all-dead / all-denied neighborhoods)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index_name", ["scan", "grid"])
def test_all_dead_neighborhood_is_empty_but_index_unchanged(index_name):
    placement = StaticPlacement.star(4, radius=100.0)
    sim, channel, nodes = _world(placement, index=index_name)
    for leaf in (1, 2, 3, 4):
        nodes[leaf].alive = False
    assert channel.neighbors_of(0) == []
    # The index itself never filters on liveness: geometry is unchanged.
    assert channel.index.near(0, sim.now) == [1, 2, 3, 4]


@pytest.mark.parametrize("index_name", ["scan", "grid"])
def test_all_denied_neighborhood_is_empty_but_index_unchanged(index_name):
    placement = StaticPlacement.star(4, radius=100.0)
    sim, channel, nodes = _world(placement, index=index_name)
    for leaf in (1, 2, 3, 4):
        channel.deny_link(0, leaf)
    assert channel.neighbors_of(0) == []
    assert channel.index.near(0, sim.now) == [1, 2, 3, 4]
    channel.allow_link(0, 2)
    assert channel.neighbors_of(0) == [2]


# ---------------------------------------------------------------------------
# Invalidation: version bumps, event epochs, attachment
# ---------------------------------------------------------------------------

def test_static_move_invalidates_immediately():
    placement = StaticPlacement({0: (0.0, 0.0), 1: (100.0, 0.0)})
    sim, channel, nodes = _world(placement, index="grid")
    assert channel.neighbors_of(0) == [1]
    placement.move(1, 5000.0, 0.0)  # version bump, same event, same time
    assert channel.neighbors_of(0) == []
    placement.move(1, 50.0, 0.0)
    assert channel.neighbors_of(0) == [1]


def test_static_placement_builds_once_across_queries():
    placement = StaticPlacement.grid(4, 4, spacing=150.0)
    sim, channel, nodes = _world(placement, index="grid")
    for _ in range(5):
        for nid in placement.node_ids():
            channel.neighbors_of(nid)
    assert channel.index.builds == 1
    placement.move(0, 1.0, 1.0)
    channel.neighbors_of(0)
    assert channel.index.builds == 2


def test_attach_forces_rebucket():
    placement = StaticPlacement({0: (0.0, 0.0), 1: (100.0, 0.0),
                                 2: (120.0, 0.0)})
    sim = Simulator(seed=3)
    channel = WirelessChannel(sim, placement, index="grid")
    node0 = Node(sim, 0, channel)
    node1 = Node(sim, 1, channel)
    assert channel.neighbors_of(0) == [1]
    node2 = Node(sim, 2, channel)  # attaches mid-run
    assert channel.neighbors_of(0) == [1, 2]
    assert _listed(channel.index, 0) == [1, 2]
    assert node0 and node1 and node2  # keep references alive


def _listed(index, node_id):
    """Ids on ``node_id``'s current grid candidate list."""
    return [entry[0] for entry in index._lists[node_id]]


def test_candidate_lists_rebuilt_after_static_move():
    placement = StaticPlacement({0: (0.0, 0.0), 1: (5000.0, 0.0),
                                 2: (100.0, 0.0)})
    sim, channel, nodes = _world(placement, index="grid")
    assert channel.neighbors_of(0) == [2]
    assert _listed(channel.index, 0) == [2]
    placement.move(1, 50.0, 0.0)  # version bump, same event, same time
    assert channel.neighbors_of(0) == [1, 2]
    assert _listed(channel.index, 0) == [1, 2]
    assert channel.index.builds == 2


class _Approach:
    """Node 0 parked at the origin; node 1 drives straight at it along
    the x axis at ``max_speed`` from ``x0`` (a speed-bounded model)."""

    static = False
    version = 0

    def __init__(self, x0, max_speed):
        self.x0 = x0
        self.max_speed = max_speed

    def position(self, node_id, t):
        return (0.0, 0.0) if node_id == 0 else (
            self.x0 - self.max_speed * t, 0.0)

    def positions_at(self, node_ids, t):
        return {nid: self.position(nid, t) for nid in node_ids}


def test_candidate_lists_rebuilt_when_snapshot_expires():
    # Node 1 starts just beyond the list radius (range plus a skin of
    # twice the drift allowance), so node 0's first list omits it.  The
    # list must be dropped with the snapshot, or node 1 stays invisible
    # after it has driven into range.
    sim = Simulator(seed=1)
    reach = 275.0 * CELL_MARGIN * (1.0 + 2.0 * (BUCKET_SLACK - 1.0))
    mobility = _Approach(x0=reach + 1.0, max_speed=20.0)
    index = make_index("grid", sim, mobility, 275.0)
    index.attach(0)
    index.attach(1)
    limit = index._bucket_limit
    assert index.near(0, 0.0) == []
    assert _listed(index, 0) == []
    assert index.near(0, limit) == []  # same snapshot, still out of range
    assert index.builds == 1
    t = (reach + 1.0 - 270.0) / 20.0  # node 1 about 270 m away
    assert t > limit
    assert index.near(0, t) == [1]
    assert index.builds == 2
    assert _listed(index, 0) == [1]


@pytest.mark.parametrize("mobile", [False, True])
def test_near_for_unattached_node_matches_scan(mobile):
    # A node the index never saw has no snapshot position (and no list);
    # its query must still answer exactly what the reference scan does.
    indexes = {}
    for name in ("scan", "grid"):
        sim = Simulator(seed=9)
        if mobile:
            mobility = RandomWaypoint(12, 900.0, 300.0, pause_time=0.0,
                                      duration=20.0,
                                      rng=sim.stream("mobility"))
        else:
            mobility = StaticPlacement(
                {nid: (90.0 * nid, 40.0 * (nid % 2)) for nid in range(12)})
        index = make_index(name, sim, mobility, 275.0)
        for nid in range(11):  # node 11 is never attached
            index.attach(nid)
        indexes[name] = index
    for t in (2.0, 2.4, 3.1, 9.0):
        indexes["grid"].near(0, t)  # build (or reuse) the snapshot first
        scan = indexes["scan"].near(11, t)
        assert indexes["grid"].near(11, t) == scan
        assert scan, "node 11 should have attached neighbors at t=%g" % t


def test_speed_bounded_buckets_survive_across_events():
    # RandomWaypoint declares max_speed, so a snapshot built once serves
    # many events until worst-case drift exhausts the slack window.
    sim = Simulator(seed=5)
    mobility = RandomWaypoint(30, 1200.0, 240.0, max_speed=20.0,
                              pause_time=0.0, duration=60.0,
                              rng=sim.stream("mobility"))
    channel = WirelessChannel(sim, mobility, index="grid")
    nodes = [Node(sim, nid, channel) for nid in mobility.node_ids()]
    slack_window = channel.index._bucket_limit
    assert slack_window == pytest.approx(
        (BUCKET_SLACK - 1.0) * 275.0 * CELL_MARGIN / 20.0)
    seen = []

    def probe():
        seen.append(len(channel.neighbors_of(0)))

    for k in range(10):  # ten events well inside the slack window
        sim.schedule(0.01 * (k + 1), probe)
    sim.run(until=1.0)
    assert len(seen) == 10
    assert channel.index.builds == 1
    # ... and a query past the window forces a rebuild.
    channel.neighbors_of(0, at_time=slack_window + 1.0)
    assert channel.index.builds == 2
    assert nodes


def test_unknown_motion_law_is_reconsulted_every_event():
    # A model with no max_speed and no version discipline: the grid falls
    # back to trusting nothing across events, so even silent mutation is
    # picked up at the next event (the epoch in the memo key).
    class TeleportingMobility:
        def __init__(self):
            self.positions = {0: (0.0, 0.0), 1: (100.0, 0.0)}

        def position(self, node_id, t):
            return self.positions[node_id]

        def positions_at(self, node_ids, t):
            return {nid: self.positions[nid] for nid in node_ids}

        def node_ids(self):
            return [0, 1]

    mobility = TeleportingMobility()
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim, mobility, index="grid")
    nodes = [Node(sim, nid, channel) for nid in mobility.node_ids()]
    results = []

    def probe_then_teleport():
        results.append(channel.neighbors_of(0))
        mobility.positions[1] = (9999.0, 0.0)  # silent mutation

    def probe_after():
        results.append(channel.neighbors_of(0))

    sim.schedule(1.0, probe_then_teleport)
    sim.schedule(1.0, probe_after)  # same time, later event
    sim.run(until=2.0)
    assert results == [[1], []]
    assert nodes


# ---------------------------------------------------------------------------
# The transmit snapshot guarantee (one mobility lookup per node per tx)
# ---------------------------------------------------------------------------

def _transmit_world(index_name, num_nodes=24):
    sim = Simulator(seed=11)
    inner = RandomWaypoint(num_nodes, 900.0, 500.0, pause_time=0.0,
                           duration=30.0, rng=sim.stream("mobility"))
    mobility = CountingMobility(inner)
    channel = WirelessChannel(sim, mobility, gray_zone=0.2, index=index_name)
    nodes = [Node(sim, nid, channel) for nid in mobility.node_ids()]
    sim.run(until=1.0)
    return sim, channel, mobility, nodes


@pytest.mark.parametrize("is_broadcast", [True, False])
def test_grid_transmit_consults_mobility_at_most_once_per_node(is_broadcast):
    sim, channel, mobility, nodes = _transmit_world("grid")
    link_dst = None if is_broadcast else 1
    mobility.reset()
    channel.transmit(Frame(Packet(), sender=0, link_dst=link_dst),
                     duration=1e-3)
    assert mobility.counts, "transmit consulted no positions at all?"
    worst = max(mobility.counts.values())
    assert worst <= 1, (
        "grid transmit looked a node's position up %d times" % worst)


def test_scan_transmit_repeats_lookups_so_the_guarantee_is_meaningful():
    # The reference scan recomputes positions per query (sender coverage +
    # virtual CTS): without the grid's memo some node is consulted more
    # than once, which is exactly the regression the test above pins.
    sim, channel, mobility, nodes = _transmit_world("scan")
    mobility.reset()
    channel.transmit(Frame(Packet(), sender=0, link_dst=1), duration=1e-3)
    assert max(mobility.counts.values()) >= 2


def test_grid_point_queries_do_not_build_buckets():
    # in_range-style point lookups must stay O(1): no bucket construction.
    sim, channel, mobility, nodes = _transmit_world("grid")
    builds_before = channel.index.builds
    mobility.reset()
    channel.in_range(0, 1)
    channel.in_range(2, 3)
    assert channel.index.builds == builds_before
    assert sum(mobility.counts.values()) == 4  # two pairs, one call each
