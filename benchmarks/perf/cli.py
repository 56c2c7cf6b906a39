"""``python -m benchmarks.perf run|compare`` (see ``README.md``).

``run`` measures each named workload in fresh child processes launched one
at a time (:mod:`benchmarks.perf.child`), prints every metric as
``workload metric value unit`` plus ``#``-prefixed identity lines, writes
``results.json`` and ends with one JSON line.  It exits 1 when a child
fails or a correctness check does.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

from benchmarks.perf import report

#: Wall-clock budget for all the children of one workload.
WORKLOAD_BUDGET_S = 170.0
DEFAULT_OUT = report.ROOT / "benchmarks" / "perf" / "out"


class ChildFailed(RuntimeError):
    """A child process crashed, overran its budget or wrote no result."""


def spawn(workload, mode, args, out_dir, deadline):
    """Run one child to completion; returns its result document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(report.ROOT / "src"), str(report.ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result_path = out_dir / ("%s.json" % mode)
    command = [sys.executable, "-m", "benchmarks.perf.child",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(float(args.seconds)), "--mode", mode,
               "--out", str(out_dir), "--t0"]
    t0 = time.monotonic()
    child = subprocess.Popen(command + [repr(t0)], cwd=str(report.ROOT),
                             env=env, stdout=subprocess.DEVNULL)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s: %s child overran the %gs budget"
                          % (workload, mode, WORKLOAD_BUDGET_S)) from None
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        raise ChildFailed("%s: %s child exited with status %d"
                          % (workload, mode, code))
    with open(result_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    result_path.unlink()
    return doc


def run_workload(name, args, spec):
    """Every child of one workload; returns its ``results.json`` entry."""
    out_dir = args.out / name
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + WORKLOAD_BUDGET_S

    def setup_sample():
        return spawn(name, "setup", args, out_dir, deadline)["setup_s"]

    # setup_s is the median of three set-ups: one child before the timed
    # child, the timed child itself and one after, so a slow host episode
    # early in the run cannot take the whole median.
    setup = [] if args.trace else [setup_sample()]
    timed = spawn(name, "timed", args, out_dir, deadline)
    problems = list(timed["problems"])
    attempted, failed = timed["attempted"], timed["failed"]
    if args.trace:
        traced = spawn(name, "traced", args, out_dir, deadline)
        problems += ["traced: " + p for p in traced["problems"]]
        attempted += traced["attempted"]
        failed += traced["failed"]
        for key in ("rows_sha256", "counters_sha256", "traces_sha256"):
            if traced["identity"][key] != timed["identity"][key]:
                problems.append("traced %s differs from the untraced run" % key)
        values = report.layer_metrics(traced["ledger"], traced["totals"],
                                      traced["trace_bytes"], timed)
        metrics = report.with_units(values, report.metric_units(spec, "per_layer"))
    else:
        setup += [timed["setup_s"], setup_sample()]
        values = report.end_to_end_metrics(timed, setup)
        metrics = report.with_units(values,
                                    report.metric_units(spec, "end_to_end"))
    shutil.rmtree(out_dir / "work", ignore_errors=True)
    return {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics,
        "identity": timed["identity"],
        "samples": {"setup_s": setup, "pass_wall_s": timed["pass_wall_s"],
                    "resume_s": timed["resume_samples_s"]},
    }


def cmd_run(args):
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = report.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print("unknown workload %r (choose from %s)" % (args.workload, names),
              file=sys.stderr)
        return 2
    selected = names if args.all else [args.workload]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    args.out = pathlib.Path(args.out)
    results = {}
    for name in selected:
        try:
            entry = run_workload(name, args, spec)
        except ChildFailed as err:
            print("perf: %s" % err, file=sys.stderr)
            return 1
        results[name] = entry
        for line in report.metric_lines(name, entry["metrics"]):
            print(line)
        for line in report.identity_lines(name, entry["identity"]):
            print(line)
        for problem in entry["problems"]:
            print("perf: %s: CHECK FAILED: %s" % (name, problem), file=sys.stderr)
        sys.stdout.flush()
    doc = {"schema": 1, "host": report.host_fingerprint(),
           "settings": {"seed": args.seed, "seconds": args.seconds,
                        "trace": bool(args.trace)},
           "workloads": results}
    with open(args.out / "results.json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    correct = all(entry["correct"] for entry in results.values())
    if args.all:
        metrics = {name: entry["metrics"] for name, entry in results.items()}
    else:
        metrics = results[selected[0]]["metrics"]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(entry["attempted"] for entry in results.values()),
        "failed": sum(entry["failed"] for entry in results.values()),
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="one workload by name")
    which.add_argument("--all", action="store_true", help="every workload")
    run.add_argument("--seed", type=int, required=True,
                     help="trial i of every grid gets seed SEED + i")
    run.add_argument("--seconds", type=float,
                     help="timed window per run (default: BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="report the per-layer metrics")
    run.add_argument("--out", default=str(DEFAULT_OUT),
                     help="results directory (default: %(default)s)")
    run.set_defaults(handler=cmd_run)
    compare = commands.add_parser(
        "compare", help="medians, quartiles and bound checks over result dirs")
    compare.add_argument("dirs", nargs="+", help="result directories")
    compare.set_defaults(handler=_compare)
    return parser


def _compare(args):
    from benchmarks.perf import compare

    return compare.run(args.dirs)


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.handler(args)
