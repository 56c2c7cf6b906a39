"""Tests for the unit-disk connectivity analysis (adjacency dicts + BFS)."""

import random

import pytest

from repro.analysis import (
    connectivity_ratio,
    pair_connected,
    partition_events,
    topology_graph,
)
from repro.mobility import RandomWaypoint, StaticPlacement


def test_topology_graph_edges_match_range():
    placement = StaticPlacement({0: (0, 0), 1: (200, 0), 2: (600, 0)})
    graph = topology_graph(placement, 0.0, transmission_range=275.0)
    assert 1 in graph[0]
    assert 2 not in graph[0]
    assert 2 not in graph[1]


def test_pair_connected_multihop():
    placement = StaticPlacement.line(4, 200.0)
    assert pair_connected(placement, 0, 3, 0.0)
    placement.move(2, 9000.0, 0.0)
    assert not pair_connected(placement, 0, 3, 0.0)


def test_connectivity_ratio_full_on_connected_static():
    placement = StaticPlacement.line(5, 200.0)
    assert connectivity_ratio(placement, duration=10.0, samples=5) == 1.0


def test_connectivity_ratio_partial_on_split():
    placement = StaticPlacement({0: (0, 0), 1: (200, 0),
                                 2: (9000, 0), 3: (9200, 0)})
    # Pairs: (0,1) and (2,3) connected; (0,2),(0,3),(1,2),(1,3) not: 2/6.
    ratio = connectivity_ratio(placement, duration=10.0, samples=3)
    assert abs(ratio - 2.0 / 6.0) < 1e-9


def test_connectivity_ratio_specific_pairs():
    placement = StaticPlacement({0: (0, 0), 1: (200, 0), 2: (9000, 0)})
    ratio = connectivity_ratio(placement, duration=1.0, samples=2,
                               pairs=[(0, 1)])
    assert ratio == 1.0


def test_partition_events_detects_intervals():
    mobility = RandomWaypoint(num_nodes=2, width=3000.0, height=300.0,
                              pause_time=0.0, duration=60.0,
                              rng=random.Random(5))
    events = partition_events(mobility, 60.0, 0, 1, resolution=2.0)
    for start, end in events:
        assert 0.0 <= start < end <= 60.0
        assert not pair_connected(mobility, 0, 1, (start + end) / 2)


def test_partition_events_drops_split_at_final_sample():
    # The pair splits exactly at t = 60, the last sample: that split has
    # no length, so only the opening interval is reported.
    mobility = RandomWaypoint(num_nodes=20, width=3000.0, height=600.0,
                              pause_time=0.0, duration=60.0,
                              rng=random.Random(3))
    events = partition_events(mobility, 60.0, 0, 7, resolution=3.0)
    assert events == [(0.0, 9.0)]
    assert not pair_connected(mobility, 0, 7, 60.0)


@pytest.mark.parametrize("seed, expected", [
    (1, 0.3427368421052632),
    (2, 0.2143157894736842),
    (3, 0.3153684210526316),
])
def test_connectivity_ratio_pinned_under_mobility(seed, expected):
    # Pinned from the networkx implementation: the adjacency-dict BFS
    # must give the same floats, not merely close ones.
    mobility = RandomWaypoint(20, 3000.0, 600.0, pause_time=0.0,
                              duration=60.0, rng=random.Random(seed))
    assert connectivity_ratio(mobility, 60.0, samples=25) == expected
