"""``python -m benchmarks.perf compare DIR [DIR ...]``.

Each DIR holds the ``results.json`` of one ``run``.  For every workload and
metric the tool prints the median and quartiles across the runs, and the
spread (interquartile range over median).  For each end-to-end metric it
flags any pair of runs whose values differ by more than the metric's
``BENCHMARK.json`` bound (the share of the first run's value by which the
second is worse), and calls the metric *unresolved* when the spread
between runs is wider than the bound.  Identity values (``rows_sha256``,
the pooled simulated statistics, ...) must match exactly.

Exit status: 0 when nothing is flagged, 1 when a pair is outside its
bound, an identity differs, a run failed its checks or a workload is
missing from some run.
"""

import json
import pathlib
import statistics

from benchmarks.perf import report


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse_by(first, second, better):
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def pair_flags(workload, name, values, dirs, meta):
    """Pairs of runs outside the metric's bound, in either order."""
    flags = []
    for i in range(len(values)):
        for j in range(len(values)):
            if i == j:
                continue
            worse = worse_by(values[i], values[j], meta["better"])
            if worse > meta["bound"]:
                flags.append("%s %s: %s is %.1f%% worse than %s (bound %g%%)"
                             % (workload, name, dirs[j], 100 * worse, dirs[i],
                                100 * meta["bound"]))
    return flags


def compare_workload(workload, entries, dirs, spec):
    """Print one workload's table; returns its flags."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    flags = []
    print("== %s (%d runs)" % (workload, len(entries)))
    print("%-32s %14s %14s %14s %8s %7s  %s"
          % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    names = [n for n in declared if any(n in e["metrics"] for e in entries)]
    for name in names:
        values = [e["metrics"][name]["value"] for e in entries
                  if name in e["metrics"]]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / abs(median) if median else 0.0
        meta = declared[name]
        verdict = "-"
        if "bound" in meta:
            found = pair_flags(workload, name, values, dirs, meta)
            flags += found
            verdict = "outside" if found else "ok"
            if len(values) > 1 and spread > meta["bound"]:
                verdict += ", unresolved"
        print("%-32s %14.6g %14.6g %14.6g %8.4f %7s  %s" % (
            name, median, q1, q3, spread,
            "%g" % meta["bound"] if "bound" in meta else "-", verdict))
    keys = sorted(set().union(*(e["identity"] for e in entries)))
    for key in keys:
        seen = {json.dumps(e["identity"].get(key)) for e in entries}
        if len(seen) > 1:
            flags.append("%s identity %s differs: %s"
                         % (workload, key, ", ".join(sorted(seen))))
    print("identity: %d values %s" % (
        len(keys), "match" if not any("identity" in f for f in flags)
        else "DIFFER"))
    for directory, entry in zip(dirs, entries):
        if not entry["correct"]:
            flags.append("%s %s failed its checks: %s"
                         % (directory, workload, entry["problems"]))
    print()
    return flags


def run(dirs):
    spec = report.load_spec()
    docs = []
    for directory in dirs:
        with open(pathlib.Path(directory) / "results.json", encoding="utf-8") as handle:
            docs.append(json.load(handle))
    workloads = list(dict.fromkeys(
        name for doc in docs for name in doc["workloads"]))
    flags = []
    for workload in workloads:
        present = [(d, doc["workloads"][workload])
                   for d, doc in zip(dirs, docs) if workload in doc["workloads"]]
        if len(present) != len(docs):
            flags.append("%s: missing from %d of %d runs"
                         % (workload, len(docs) - len(present), len(docs)))
        flags += compare_workload(workload, [e for _, e in present],
                                  [d for d, _ in present], spec)
    for flag in flags:
        print("FLAG %s" % flag)
    print("compare: %s" % ("%d flag(s)" % len(flags) if flags
                           else "every pair within its bound"))
    return 1 if flags else 0
