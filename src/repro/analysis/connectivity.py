"""Topology analysis of scenarios (unit-disk graphs).

Used to contextualize delivery ratios: a pair of nodes that is *physically
partitioned* cannot be served by any routing protocol, so the interesting
quantity is delivery relative to the connectivity bound, not the raw
ratio.  EXPERIMENTS.md and ``benchmarks/bench_oracle.py`` lean on this.
"""


def topology_graph(mobility, t, transmission_range=275.0):
    """The unit-disk connectivity graph at time ``t``.

    Returned as an adjacency dict, ``{node: set(neighbours)}``.
    """
    node_ids = mobility.node_ids()
    graph = {n: set() for n in node_ids}
    positions = {n: mobility.position(n, t) for n in node_ids}
    limit = transmission_range * transmission_range
    for i, a in enumerate(node_ids):
        ax, ay = positions[a]
        for b in node_ids[i + 1:]:
            bx, by = positions[b]
            dx, dy = ax - bx, ay - by
            if dx * dx + dy * dy <= limit:
                graph[a].add(b)
                graph[b].add(a)
    return graph


def _component_labels(graph):
    """``{node: label}``, one label per connected component (BFS)."""
    labels = {}
    for root in graph:
        if root in labels:
            continue
        labels[root] = root
        frontier = [root]
        for node in frontier:
            for neighbour in graph[node]:
                if neighbour not in labels:
                    labels[neighbour] = root
                    frontier.append(neighbour)
    return labels


def pair_connected(mobility, src, dst, t, transmission_range=275.0):
    """Is there a multihop path between src and dst at time ``t``?"""
    labels = _component_labels(topology_graph(mobility, t, transmission_range))
    return labels[src] == labels[dst]


def connectivity_ratio(mobility, duration, samples=50,
                       transmission_range=275.0, pairs=None):
    """Fraction of (pair, time) samples with a physical path.

    ``pairs=None`` samples all ordered pairs; this is an upper bound on
    any protocol's achievable delivery ratio for uniformly chosen flows.
    """
    node_ids = mobility.node_ids()
    if pairs is None:
        pairs = [(a, b) for a in node_ids for b in node_ids if a < b]
    connected = 0
    total = 0
    for k in range(samples):
        t = duration * k / max(1, samples - 1)
        labels = _component_labels(
            topology_graph(mobility, t, transmission_range))
        for a, b in pairs:
            total += 1
            if labels.get(a) == labels.get(b):
                connected += 1
    return connected / total if total else 0.0


def partition_events(mobility, duration, src, dst, resolution=1.0,
                     transmission_range=275.0):
    """Time intervals during which ``src`` and ``dst`` are partitioned.

    Returns a list of (start, end) intervals sampled at ``resolution``,
    each with ``start < end``: a split first seen at the final sample
    has no length and is not reported.
    """
    intervals = []
    current_start = None
    t = 0.0
    while t <= duration:
        connected = pair_connected(mobility, src, dst, t, transmission_range)
        if not connected and current_start is None:
            current_start = t
        elif connected and current_start is not None:
            intervals.append((current_start, t))
            current_start = None
        t += resolution
    if current_start is not None and current_start < duration:
        intervals.append((current_start, duration))
    return intervals
