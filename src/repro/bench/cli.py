"""``repro bench`` — kernel microbenchmarks with a regression gate.

Usage::

    python -m repro bench                     # full sweep, BENCH_kernel.json
    python -m repro bench --quick             # CI smoke sizes
    python -m repro bench --update-baseline   # refresh the committed baseline

The run writes ``BENCH_kernel.json`` (``--out``) and, when a baseline file
is present (``--baseline``, default the committed
``benchmarks/results/BENCH_baseline.json``), compares the measured
grid-vs-scan speedups against it: any entry more than ``--threshold``
(default 25%) below its baseline speedup fails the run.

Exit status: 0 ok, 1 regression detected, 2 usage error.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.bench.kernel import (
    compare_to_baseline,
    extract_speedups,
    run_kernel_bench,
)

#: Where the repo keeps the committed speedup baseline.
DEFAULT_BASELINE = Path("benchmarks") / "results" / "BENCH_baseline.json"


def build_parser(add_help=True):
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="kernel microbenchmarks (spatial-index fast path)",
        add_help=add_help,
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller sweeps, fewer reps")
    parser.add_argument("--sizes", default=None, metavar="N,N,...",
                        help="node counts for the query benchmarks")
    parser.add_argument("--rounds", type=int, default=None,
                        help="time instants per neighbors_of sweep")
    parser.add_argument("--transmit-reps", type=int, default=None,
                        help="unicasts per transmit benchmark")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="BENCH_kernel.json",
                        metavar="PATH", help="report output path")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="speedup baseline to gate against (default: %s "
                             "when present)" % DEFAULT_BASELINE)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional speedup drop (default 0.25)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write this run's speedups to the baseline path "
                             "instead of gating against it")
    return parser


def _parse_sizes(text):
    if text is None:
        return None
    sizes = tuple(int(part) for part in text.split(",") if part.strip())
    if not sizes:
        return None
    return sizes


def _format_row(row):
    return "%-14s n=%-4d scan %10.0f ns/op   grid %10.0f ns/op   %6.2fx" % (
        row["bench"], row["n"], row["scan_ns_per_op"],
        row["grid_ns_per_op"], row["speedup"],
    )


def run(args, stream):
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError:
        print("repro bench: --sizes must be comma-separated integers",
              file=sys.stderr)
        return 2

    report = run_kernel_bench(
        quick=args.quick,
        sizes=sizes,
        rounds=args.rounds,
        transmit_reps=args.transmit_reps,
        seed=args.seed,
        progress=(lambda line: print("  " + line, file=sys.stderr))
        if sys.stderr.isatty() else None,
    )

    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for row in report["results"]:
        print(_format_row(row), file=stream)
    print("wrote %s" % out_path, file=stream)

    baseline_path = Path(args.baseline) if args.baseline else DEFAULT_BASELINE
    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps({
            "schema": report["schema"],
            "note": "dimensionless grid-vs-scan speedups, so comparable "
                    "across machines. Regenerate with "
                    "`repro bench --update-baseline`.",
            "speedups": extract_speedups(report),
        }, indent=2, sort_keys=True) + "\n")
        print("baseline updated: %s" % baseline_path, file=stream)
        return 0

    if not baseline_path.is_file():
        if args.baseline:
            print("repro bench: baseline %s not found" % baseline_path,
                  file=sys.stderr)
            return 2
        print("no baseline at %s; regression gate skipped" % baseline_path,
              file=stream)
        return 0
    baseline = json.loads(baseline_path.read_text())
    regressions, skipped = compare_to_baseline(
        report, baseline, threshold=args.threshold)
    if skipped:
        print("baseline entries not measured this run (skipped): %s"
              % ", ".join(skipped), file=stream)
    if regressions:
        for reg in regressions:
            print("REGRESSION %-20s speedup %.2fx < floor %.2fx "
                  "(baseline %.2fx, threshold %d%%)"
                  % (reg["key"], reg["current"], reg["floor"],
                     reg["baseline"], round(100 * reg["threshold"])),
                  file=stream)
        return 1
    print("speedups within %d%% of baseline (%d entries checked)"
          % (round(100 * args.threshold),
             len(baseline.get("speedups", {})) - len(skipped)), file=stream)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    return run(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
