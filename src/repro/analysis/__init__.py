"""Statistical and topological analysis helpers."""

from repro.analysis.connectivity import (
    connectivity_ratio,
    pair_connected,
    partition_events,
    topology_graph,
)
from repro.analysis.stats import Aggregate, mean_confidence_interval

__all__ = [
    "Aggregate",
    "connectivity_ratio",
    "mean_confidence_interval",
    "pair_connected",
    "partition_events",
    "topology_graph",
]
