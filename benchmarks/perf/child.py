"""Run one workload in this process: set up, time passes, check, report.

The parent (:mod:`benchmarks.perf.cli`) launches each run of a workload as
a fresh ``python -m benchmarks.perf.child`` process, one at a time.  Every
workload runs the way ``repro campaign`` runs a grid: a journaled campaign
(``start_campaign``) executed in this process by its ``CampaignEngine``
(``jobs=1``: no pool, no extra threads), then re-served from the campaign's
cache by warm ``resume_campaign`` passes.

Modes:

``setup``   stop just before the first ``engine.run``; report ``setup_s``.
``timed``   repeat cold + warm passes for ``--seconds``; report timings.
``traced``  wrap the layer boundaries first (:mod:`benchmarks.perf.ledger`),
            then run one cold + one warm pass and write the ledger.

The result is one JSON document at ``<out>/<mode>.json``; nothing goes to
stdout.
"""

import argparse
import hashlib
import json
import pathlib
import resource
import shutil
import sys
import tempfile
import time

#: Fewest timed passes in a run: every trial's fastest of at least 3.
MIN_PASSES = 3
#: Warm resumes after each cold pass.
WARM_PASSES = 2


def digest(doc):
    """sha256 of the canonical JSON encoding of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_digest(root):
    """``(sha256, bytes)`` over every file under ``root``, by relative path."""
    sha = hashlib.sha256()
    size = 0
    root = pathlib.Path(root)
    if root.is_dir():
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            sha.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
            sha.update(data)
            size += len(data)
    return sha.hexdigest(), size


def row_problems(rows, configs):
    """Malformed rows, and LDR rows with loop-kind violations (Theorem 4)."""
    problems = []
    for index, (row, config) in enumerate(zip(rows, configs)):
        ratio = row["delivery_ratio"]
        if not 0.0 <= ratio <= 1.0:
            problems.append("trial %d: delivery_ratio %r outside [0, 1]"
                            % (index, ratio))
        if row["data_originated"] <= 0:
            problems.append("trial %d: no data originated" % index)
        if row["data_delivered"] > row["data_originated"]:
            problems.append("trial %d: delivered %d > originated %d" % (
                index, row["data_delivered"], row["data_originated"]))
        loops = row["invariant_breakdown"].get("loop", 0)
        if config.protocol == "ldr" and loops:
            problems.append("trial %d: LDR formed %d loop(s)" % (index, loops))
    return problems


def add_counters(total, part):
    """Sum nested counter dicts ``part`` into ``total`` in place."""
    for key, value in part.items():
        if isinstance(value, dict):
            add_counters(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def simulated_stats(totals, rows):
    """Pooled simulated statistics: deterministic for a given seed."""
    collector = totals["collector"]
    delivered = collector["data_delivered"]
    control = collector["control_transmissions"]
    return {
        "delivery_ratio": delivered / collector["data_originated"],
        "network_load": sum(control.values()) / delivered,
        "rreq_load": control.get("rreq", 0) / delivered,
        "mean_latency_ms": 1e3 * collector["latency_sum"] / delivered,
        "invariant_violations": sum(r["invariant_violations"] for r in rows),
    }


class Runner:
    """One workload's campaign passes, and the checks on what they return."""

    def __init__(self, workload, configs, work_dir, probe):
        import repro.exec as rexec

        self.rexec = rexec
        self.workload = workload
        self.configs = configs
        self.work_dir = pathlib.Path(work_dir)
        self.probe = probe
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.reference = None  # identity of the first cold pass
        self._ticks = []

    def start(self):
        """A fresh journaled campaign; returns ``(root, manifest, engine)``."""
        root = pathlib.Path(tempfile.mkdtemp(dir=str(self.work_dir)))
        manifest, engine = self.rexec.start_campaign(
            root, self.configs, name=self.workload.name,
            trace=self.workload.trace, progress=self._tick)
        return root, manifest, engine

    def _tick(self, progress):
        self._ticks.append(time.perf_counter())

    def cold(self, campaign):
        """Execute every trial; returns ``(result, per-trial seconds)``."""
        _, manifest, engine = campaign
        del self.probe.trials[:]
        del self._ticks[:]
        start = time.perf_counter()
        result = engine.run(self.configs)
        manifest.close()
        ticks = list(self._ticks)
        if engine.warnings:
            self.problems.append("engine warnings: %s" % engine.warnings[:3])
        if len(ticks) != len(self.configs):
            self.problems.append("%d progress ticks for %d trials"
                                 % (len(ticks), len(self.configs)))
        return result, [b - a for a, b in zip([start] + ticks, ticks)]

    def warm(self, root):
        """Re-serve the campaign from its cache; returns ``(result, s)``."""
        start = time.perf_counter()
        manifest, result = self.rexec.resume_campaign(root)
        took = time.perf_counter() - start
        manifest.close()
        return result, took

    def _settle(self, result):
        n = len(self.configs)
        self.attempted += n
        missing = result.failed + len(result.quarantined())
        self.failed += missing
        if missing:
            self.problems.append("%d of %d trials failed or were quarantined"
                                 % (missing, n))
            return None
        return result.rows()

    def check_cold(self, result, root):
        """Check a cold pass; every pass must match the first exactly."""
        rows = self._settle(result)
        if rows is None:
            return
        self.problems.extend(row_problems(rows, self.configs))
        counters = list(self.probe.trials)
        traces = tree_digest(root / "traces")
        identity = {"rows_sha256": digest(rows),
                    "counters_sha256": digest(counters),
                    "traces_sha256": traces[0] if self.workload.trace else None}
        if self.reference is None:
            totals = {}
            for trial in counters:
                add_counters(totals, trial)
            self.reference = dict(identity, rows=rows, totals=totals,
                                  trace_bytes=traces[1])
            return
        differing = [k for k, v in identity.items() if self.reference[k] != v]
        if differing:
            self.problems.append("a repeated cold pass differs from the first "
                                 "in %s" % ", ".join(differing))

    def check_warm(self, result):
        rows = self._settle(result)
        if rows is None:
            return
        if result.cached != len(self.configs):
            self.failed += len(self.configs) - result.cached
            self.problems.append("warm resume served %d of %d trials from "
                                 "cache" % (result.cached, len(self.configs)))
        if self.reference is not None and rows != self.reference["rows"]:
            self.problems.append("warm resume rows differ from the cold rows")

    def timed(self, campaign, seconds):
        """Cold + warm passes for ``seconds``; returns the timing summary."""
        per_trial = []  # one list of per-trial seconds per cold pass
        passes = []
        resumes = []
        started = time.perf_counter()
        while True:
            if campaign is None:
                campaign = self.start()
            root = campaign[0]
            result, seconds_each = self.cold(campaign)
            self.check_cold(result, root)
            per_trial.append(seconds_each)
            passes.append(sum(seconds_each))
            for _ in range(WARM_PASSES):
                result, took = self.warm(root)
                self.check_warm(result)
                resumes.append(took)
            shutil.rmtree(root)
            campaign = None
            elapsed = time.perf_counter() - started
            if (len(passes) >= MIN_PASSES
                    and elapsed + elapsed / len(passes) > seconds):
                break
        # Host contention only ever adds time, and on a shared host it comes
        # in episodes lasting tens of seconds.  So each trial counts with
        # its fastest pass, and a warm resume with the fastest of the run:
        # the estimate moves only if an episode covers the whole run.
        wall = sum(min(column) for column in zip(*per_trial))
        return {"wall_s": wall, "resume_s": min(resumes),
                "pass_wall_s": passes, "resume_samples_s": resumes}

    def identity(self):
        reference = self.reference or {}
        doc = {key: reference.get(key) for key in
               ("rows_sha256", "counters_sha256", "traces_sha256")}
        if reference:
            doc.update(simulated_stats(reference["totals"], reference["rows"]))
        doc["failed_frac"] = self.failed / max(1, self.attempted)
        return doc


def traced(runner, tracer, campaign, out_dir):
    """One cold + one warm pass under the ledger; writes spans and layers."""
    root = campaign[0]
    tracer.reset()
    phases = {}

    def workload():
        result, phases["cold_s"] = tracer.region(
            "cold", lambda: runner.cold(campaign)[0])
        warm, phases["resume_s"] = tracer.region(
            "resume", lambda: runner.warm(root)[0])
        return result, warm

    (result, warm), wall = tracer.region("workload", workload)
    runner.check_cold(result, root)
    runner.check_warm(warm)
    shutil.rmtree(root)
    ledger = dict(phases, wall_s=wall, scheduled=tracer.scheduled,
                  cached=warm.cached, layers=tracer.layers(),
                  functions=tracer.functions())
    tracer.write_spans(out_dir / "spans.jsonl")
    with open(out_dir / "layers.json", "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return ledger


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--out", required=True, help="this workload's dir")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    from benchmarks.perf import ledger
    from benchmarks.perf.workloads import WORKLOADS

    out_dir = pathlib.Path(args.out)
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    probe = ledger.CounterProbe().install()
    tracer = None
    if args.mode == "traced":
        tracer = ledger.Tracer()
        ledger.Instrumentation(tracer).install()
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, workload.build(args.seed), work_dir, probe)
    campaign = runner.start()
    doc = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
           "setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        shutil.rmtree(campaign[0])
    elif args.mode == "timed":
        doc.update(runner.timed(campaign, args.seconds))
    else:
        doc["ledger"] = traced(runner, tracer, campaign, out_dir)
    doc.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": list(dict.fromkeys(runner.problems)),
        "identity": runner.identity(),
        "totals": (runner.reference or {}).get("totals"),
        "trace_bytes": (runner.reference or {}).get("trace_bytes"),
    })
    with open(out_dir / ("%s.json" % args.mode), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
