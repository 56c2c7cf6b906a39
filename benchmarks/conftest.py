"""Shared configuration for the benchmark suite.

``bench_paper.py`` regenerates the paper's evaluation (Section 4, Table 1
and Figures 2–7) from one run of the paper grid; ``bench_ablation.py`` and
``bench_oracle.py`` measure the extensions.  By default the campaigns are
*scaled down* so the whole suite runs in minutes on a laptop; set
environment variables to approach the paper's full scale:

* ``REPRO_PAPER_SCALE=1`` — 900-second runs, 10 trials, the full pause
  sweep (hours of wall-clock on one core — combine with
  ``REPRO_BENCH_JOBS``).
* ``REPRO_BENCH_DURATION`` — seconds per run (default 45).
* ``REPRO_BENCH_TRIALS`` — trials per configuration (default 1).
* ``REPRO_BENCH_JOBS`` — worker processes per campaign (default 1);
  trials fan out over a process pool with results bit-identical to the
  serial run.
* ``REPRO_BENCH_CACHE=1`` — reuse the on-disk trial-result cache
  (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-ldr``).  Off by default so
  benchmark timings measure simulation, not cache reads.

Results are printed and written under ``benchmarks/results/``.
"""

import os
import pathlib

import pytest

from repro.experiments.campaigns import Campaign

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_campaign():
    """The campaign all benches share, controlled by the env knobs above."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    use_cache = os.environ.get("REPRO_BENCH_CACHE") == "1"
    if os.environ.get("REPRO_PAPER_SCALE") == "1":
        return Campaign(paper_scale=True, jobs=jobs, use_cache=use_cache)
    duration = float(os.environ.get("REPRO_BENCH_DURATION", "45"))
    trials = int(os.environ.get("REPRO_BENCH_TRIALS", "1"))
    return Campaign(paper_scale=False, duration=duration, trials=trials,
                    jobs=jobs, use_cache=use_cache)


def save_result(name, text):
    """Print a regenerated table/figure and persist it for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / (name + ".txt")).write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def campaign():
    return bench_campaign()
