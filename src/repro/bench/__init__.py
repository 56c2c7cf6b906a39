"""Kernel-microbenchmark harness (``repro bench``).

Times the simulation kernel's hot paths — ``Channel.neighbors_of`` and
``Channel.transmit`` fan-out under both spatial-index backends (``grid``
vs the brute-force ``scan`` reference), the event scheduler (calendar vs
heap), and full protocol trials (all fast paths vs all references) —
across node counts, and emits a machine-readable ``BENCH_kernel.json``.
Speedups (reference time / fast time) are dimensionless and therefore
comparable across machines; the committed baseline
(``benchmarks/results/BENCH_baseline.json``) stores them so CI can fail a
PR whose fast path regressed, without absolute-nanosecond flakiness.

This layer runs on the *host* side of the wall — it reads real clocks by
design (allowlisted for lint rule RL002 like ``exec/``); nothing inside a
simulated trial ever depends on it.
"""

from repro.bench.kernel import (
    BENCH_SCHEMA,
    NODE_COUNTS,
    QUICK_NODE_COUNTS,
    compare_to_baseline,
    extract_speedups,
    run_kernel_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "NODE_COUNTS",
    "QUICK_NODE_COUNTS",
    "compare_to_baseline",
    "extract_speedups",
    "run_kernel_bench",
]
