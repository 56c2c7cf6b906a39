"""Adversarial verification: executable counterexamples + offline replay.

The paper's central claim is that LDR's destination-controlled update
conditions guarantee loop freedom where sequence-number schemes do not.
This package makes that claim *executable* in both directions:

* :mod:`~repro.verify.counterexamples` — the published AODV loop
  interleavings (arXiv:1512.08891, arXiv:1512.08867) as deterministic
  scenarios that run against any registry protocol;
* :mod:`~repro.verify.replay` — offline conformance replay: drive the
  invariant monitor from a ``.trace.jsonl(.gz)`` artifact alone and
  cross-check its verdict against the violations the monitor recorded
  live;
* :mod:`~repro.verify.grid` — the counterexample x protocol verdict
  matrix, with online/offline agreement gates and LDR-vs-AODV trace
  divergence pinpointing.

Surfaced as ``repro verify list/run/replay/grid``.
"""

from repro.verify.counterexamples import (
    COUNTEREXAMPLES_DIR,
    Counterexample,
    CounterexampleError,
    CounterexampleRun,
    load_counterexample,
    load_suite,
    run_counterexample,
    verdict_from_breakdown,
)
from repro.verify.replay import (
    REPLAY_KINDS,
    ReplayResult,
    replay_events,
    replay_trace,
)
from repro.verify.grid import (
    GRID_PROTOCOLS,
    GridCell,
    first_route_divergence,
    format_grid,
    run_grid,
)

__all__ = [
    "COUNTEREXAMPLES_DIR",
    "Counterexample",
    "CounterexampleError",
    "CounterexampleRun",
    "GRID_PROTOCOLS",
    "GridCell",
    "REPLAY_KINDS",
    "ReplayResult",
    "first_route_divergence",
    "format_grid",
    "load_counterexample",
    "load_suite",
    "replay_events",
    "replay_trace",
    "run_counterexample",
    "run_grid",
    "verdict_from_breakdown",
]
