"""Experiment harness: scenario construction, multi-trial runs, and the
trial grids every table and figure in the paper's evaluation views.

* :mod:`repro.experiments.scenario` — one simulation run.
* :mod:`repro.experiments.runner` — seeds, trials, aggregation.
* :mod:`repro.experiments.campaigns` — the paper's 50-node and 100-node
  configurations (scaled by default; ``paper_scale=True`` for the real
  thing) as labelled grids, and ``run_grid``, the one way a grid runs.
* :mod:`repro.experiments.tables` / :mod:`repro.experiments.figures` —
  Table 1 and Figures 2–7, as views over a grid's trials.
* :mod:`repro.experiments.grids` — the named grids (``churn``, ``paper``).
"""

from repro.experiments.runner import (
    MissingMetricError,
    run_protocol_comparison,
    run_trials,
)
from repro.experiments.scenario import (
    PROTOCOLS,
    ConfigSerializationError,
    ScenarioConfig,
    build_scenario,
    run_scenario,
)

__all__ = [
    "PROTOCOLS",
    "ConfigSerializationError",
    "MissingMetricError",
    "ScenarioConfig",
    "build_scenario",
    "run_protocol_comparison",
    "run_scenario",
    "run_trials",
]
