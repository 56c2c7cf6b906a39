"""Command-line interface: ``python -m repro <command> ...``

Commands
--------
run           one scenario, print the paper's metrics
              (``--faults PLAN.json`` injects a fault plan;
              ``--invariants`` turns on the invariant monitor;
              ``--trace OUT.jsonl`` writes a structured event trace;
              ``--profile`` prints hot-loop counters/timers)
profile       run one scenario under the wall-clock stack sampler;
              ``--flame OUT.folded`` exports flamegraph collapsed
              stacks (render with flamegraph.pl or speedscope)
compare       several protocols on the identical workload
table1        regenerate Table 1 for a flow count
figure        regenerate one of Figures 2-7
campaign      named extra campaigns (``churn``: crash/reboot/partition
              grids over LDR vs AODV vs DSR with the monitor on;
              ``--trace [DIR]`` keeps a per-trial JSONL trace artifact;
              ``--journal DIR`` journals the run crash-tolerantly and
              ``campaign resume DIR`` continues it after a crash,
              SIGINT/SIGTERM, or power loss — merged results are
              byte-identical to an uninterrupted run;
              ``--shards K --shard-index I`` runs one deterministic
              partition of the trial grid (``--claim`` work-steals
              shards from DIR/shards/claims/ instead);
              ``campaign merge DIR`` certifies and renders the union of
              shard journals (``--partial`` for incomplete coverage,
              ``--csv``/``--out`` for artifacts) and
              ``campaign watch DIR`` streams running tables and
              delivery/latency CDFs as shard journals grow)
chaos         crash-tolerance self-test: SIGKILL workers and the driver
              mid-campaign, truncate the journal tail, corrupt cache and
              trace bytes, then resume and assert byte-identical rows
              and artifacts (the designated poison trial must end up
              quarantined, not campaign-fatal)
cache         inspect or clear the on-disk trial-result cache
connectivity  physical connectivity bound of a scenario's mobility
audit         loop-freedom audit of ``--protocol`` (default LDR) under
              the given scenario
lint          determinism & protocol-conformance static analysis
bench         kernel microbenchmarks (spatial index + event-scheduler
              fast paths) with a speedup-regression gate against the
              committed baseline
trace         inspect a JSONL trace artifact: summarize, filter, replay
              a destination's route timeline, or diff two traces
verify        adversarial verification: run the published AODV loop
              counterexamples against any protocol, replay invariant
              checks offline from trace artifacts, or run the full
              counterexample x protocol verdict grid

``compare``, ``table1`` and ``figure`` run their trials through the
campaign engine: ``--jobs N`` fans trials over N worker processes and
results are cached on disk (disable with ``--no-cache``; relocate with
``--cache-dir`` or ``$REPRO_CACHE_DIR``).  Parallel and cached runs are
bit-identical to serial ones.
"""

import argparse
import json
import sys

from repro.analysis import connectivity_ratio
from repro.exec import CampaignEngine, ResultCache, console_progress
from repro.experiments import (
    PROTOCOLS,
    ScenarioConfig,
    build_scenario,
)
from repro.experiments.campaigns import (
    Campaign,
    aggregate_churn,
    format_churn,
    run_churn,
    run_churn_shard,
)
from repro.faults import FaultPlan, FaultPlanError
from repro.experiments.figures import (
    figure_delivery,
    figure_qualnet_crosscheck,
    figure_seqno,
    format_series,
)
from repro.experiments.tables import format_table1, table1
from repro.routing import LoopError


def _add_scenario_args(parser):
    parser.add_argument("--protocol", default="ldr", choices=sorted(PROTOCOLS))
    parser.add_argument("--nodes", type=int, default=50)
    parser.add_argument("--flows", type=int, default=10)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--pause", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--width", type=float, default=None)
    parser.add_argument("--height", type=float, default=None)


def _add_exec_args(parser):
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the trial-result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="cache location (default $REPRO_CACHE_DIR or "
                             "~/.cache/repro-ldr)")


def _progress(args):
    """Console progress for interactive campaign runs."""
    if sys.stderr.isatty():
        return console_progress(sys.stderr)
    return None


def _campaign_from(args):
    return Campaign(
        paper_scale=args.paper_scale, duration=args.duration,
        trials=args.trials, jobs=args.jobs, use_cache=not args.no_cache,
        cache_dir=args.cache_dir, progress=_progress(args),
        trace_dir=getattr(args, "trace", None),
        trace_gzip=getattr(args, "gzip", False),
        journal=getattr(args, "journal", None),
        retries=getattr(args, "retries", 1),
        timeout=getattr(args, "timeout", None),
        quarantine_after=getattr(args, "quarantine_after", None),
    )


def _scenario_from(args, protocol=None):
    width = args.width if args.width else (1500.0 if args.nodes <= 50 else 2200.0)
    height = args.height if args.height else (300.0 if args.nodes <= 50 else 600.0)
    return ScenarioConfig(
        protocol=protocol or args.protocol, num_nodes=args.nodes,
        width=width, height=height, num_flows=args.flows,
        duration=args.duration, pause_time=args.pause, seed=args.seed,
    )


def _load_fault_plan(path):
    with open(path) as handle:
        data = json.load(handle)
    return FaultPlan.from_dict(data)


def cmd_run(args):
    config = _scenario_from(args)
    if args.faults:
        try:
            config = config.replaced(fault_plan=_load_fault_plan(args.faults))
        except (OSError, ValueError) as err:  # FaultPlanError is a ValueError
            print("cannot load fault plan %s: %s" % (args.faults, err),
                  file=sys.stderr)
            return 2
    if args.invariants or config.fault_plan is not None:
        config = config.replaced(invariant_check=True)
    if args.trace:
        config = config.replaced(trace=True)
    scenario = build_scenario(config)
    if config.fault_plan is not None and sys.stderr.isatty():
        print(config.fault_plan.describe(), file=sys.stderr)
    report = scenario.run()
    if args.trace:
        from repro.obs import trace_header, write_trace

        count = write_trace(
            args.trace, scenario.trace,
            header=trace_header(
                config=config,
                destinations=sorted(scenario.traffic.destinations_used()),
            ))
        print("trace: %d event(s) -> %s" % (count, args.trace),
              file=sys.stderr)
    if args.profile:
        print(json.dumps(report.profile_dict(), indent=2, sort_keys=True),
              file=sys.stderr)
    print(json.dumps(report.as_dict(), indent=2))
    if scenario.monitor is not None and scenario.monitor.violations:
        for when, kind, detail in scenario.monitor.violations:
            print("VIOLATION t=%-10g %-18s %s" % (when, kind, detail),
                  file=sys.stderr)
        return 1
    return 0


def cmd_profile(args):
    from repro.obs import StackSampler

    scenario = build_scenario(_scenario_from(args))
    sampler = StackSampler(interval=args.interval / 1000.0)
    with sampler:
        report = scenario.run()
    if args.flame:
        lines = sampler.write_collapsed(args.flame)
        print("flame: %d sample(s), %d unique stack(s) -> %s"
              % (sampler.sample_count, lines, args.flame), file=sys.stderr)
    else:
        for line in sampler.collapsed()[:args.top]:
            print(line)
    print(json.dumps(report.profile_dict(), indent=2, sort_keys=True),
          file=sys.stderr)
    return 0


def cmd_compare(args):
    protocols = args.protocols.split(",")
    keys = ("delivery_ratio", "mean_latency", "network_load", "rreq_load",
            "mean_destination_seqno")
    for protocol in protocols:
        if protocol not in PROTOCOLS:
            print("unknown protocol: %s" % protocol, file=sys.stderr)
            return 2
    engine = CampaignEngine(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        progress=_progress(args),
    )
    rows = engine.run_rows(
        _scenario_from(args, protocol) for protocol in protocols
    )
    header = "{:<8}".format("proto") + "".join("{:>14}".format(k[:13]) for k in keys)
    print(header)
    print("-" * len(header))
    for protocol, row in zip(protocols, rows):
        print("{:<8}".format(protocol) + "".join(
            "{:>14.4f}".format(row[k]) for k in keys))
    return 0


def cmd_table1(args):
    campaign = _campaign_from(args)
    print(format_table1(table1(args.flows, campaign=campaign), args.flows))
    return 0


def cmd_figure(args):
    campaign = _campaign_from(args)
    figures = {
        "fig2": lambda: figure_delivery(50, 10, campaign=campaign),
        "fig3": lambda: figure_delivery(50, 30, campaign=campaign),
        "fig4": lambda: figure_delivery(100, 10, campaign=campaign),
        "fig5": lambda: figure_delivery(100, 30, campaign=campaign),
        "fig6": lambda: figure_qualnet_crosscheck(campaign=campaign),
        "fig7": lambda: figure_seqno(campaign=campaign),
    }
    series = figures[args.name]()
    ylabel = "mean destination seqno" if args.name == "fig7" else "delivery ratio"
    print(format_series(series, "Figure %s" % args.name[3:], ylabel=ylabel))
    return 0


def _report_churn(labels, result, manifest=None):
    """Render a churn result: table, quarantine report, resume hint."""
    table = aggregate_churn(labels, result)
    print(format_churn(table))
    quarantined = result.quarantined()
    if quarantined:
        print("\n%d trial(s) quarantined after repeated failure:"
              % len(quarantined), file=sys.stderr)
        for trial in quarantined:
            last = (trial.error or "").strip().splitlines()
            print("  trial #%d (%s, seed %d): %s"
                  % (trial.index, trial.config.protocol, trial.config.seed,
                     last[-1] if last else "(no error recorded)"),
                  file=sys.stderr)
    if result.interrupted:
        print("\ninterrupted by %s at %.0f%% coverage; campaign state is "
              "journaled — resume with:" % (result.interrupted,
                                            100.0 * result.coverage),
              file=sys.stderr)
        if manifest is not None:
            print("  " + manifest.resume_command(), file=sys.stderr)
        return 3
    failures = result.failures()
    if failures:
        print("\n%d trial(s) failed outright:" % len(failures),
              file=sys.stderr)
        for trial in failures:
            last = (trial.error or "").strip().splitlines()
            print("  trial #%d (%s): %s"
                  % (trial.index, trial.config.protocol,
                     last[-1] if last else "(no error recorded)"),
                  file=sys.stderr)
        return 1
    total = sum(row["invariant_violations"] for row in table)
    if total:
        print("\n%d invariant violation(s) across the campaign"
              % total, file=sys.stderr)
        return 1
    return 0


def _cmd_campaign_resume(args):
    from repro.exec.manifest import ManifestError, resume_campaign

    if not args.dir:
        print("campaign resume needs the campaign directory "
              "(the one holding manifest.jsonl)", file=sys.stderr)
        return 2
    try:
        manifest, result = resume_campaign(args.dir, progress=_progress(args))
    except (ManifestError, FileNotFoundError) as err:
        print("cannot resume %s: %s" % (args.dir, err), file=sys.stderr)
        return 2
    if manifest.torn_tail:
        print("note: journal had a torn final record (crash signature); "
              "the transition it described was re-derived", file=sys.stderr)
    meta = manifest.header.get("meta", {})
    labels = [tuple(label) for label in meta.get("labels", [])]
    if manifest.header.get("name") == "churn" \
            and len(labels) == len(result.trials):
        return _report_churn(labels, result, manifest)
    # A journal without table metadata still resumes; report coverage.
    print("campaign %r: %d/%d trial(s) complete (coverage %.0f%%), "
          "%d quarantined, %d failed"
          % (manifest.header.get("name"), len(result.completed()),
             len(result.trials), 100.0 * result.coverage,
             len(result.quarantined()), result.failed))
    if result.interrupted:
        print("interrupted by %s; resume with:\n  %s"
              % (result.interrupted, manifest.resume_command()),
              file=sys.stderr)
        return 3
    return 0 if not result.failures() else 1


def _report_shard_sessions(plan, sessions, root):
    """Render per-shard completion; shard runs never render the table —
    that is the aggregator's job (``repro campaign merge``)."""
    worst = 0
    for index, result, manifest in sessions:
        print("shard %d/%d: %d/%d trial(s) complete, %d quarantined, "
              "%d failed"
              % (index, plan.shards, len(result.completed()),
                 len(result.trials), len(result.quarantined()),
                 result.failed))
        if result.interrupted:
            print("shard %d interrupted by %s; resume with:\n  python -m "
                  "repro campaign churn --journal %s --shards %d "
                  "--shard-index %d"
                  % (index, result.interrupted, root, plan.shards, index),
                  file=sys.stderr)
            worst = max(worst, 3)
        elif result.failures():
            for trial in result.failures():
                last = (trial.error or "").strip().splitlines()
                print("  shard %d trial #%d (%s): %s"
                      % (index, trial.index, trial.config.protocol,
                         last[-1] if last else "(no error recorded)"),
                      file=sys.stderr)
            worst = max(worst, 1)
    if not sessions:
        print("no unclaimed shard left on the claim board (all claimed "
              "or done); inspect with: python -m repro campaign watch %s"
              % root, file=sys.stderr)
    print("merge when all shards are done:\n  python -m repro campaign "
          "merge %s" % root, file=sys.stderr)
    return worst


def _cmd_campaign_churn_sharded(args, campaign):
    if not args.journal:
        print("--shards requires --journal DIR (the shared campaign "
              "directory)", file=sys.stderr)
        return 2
    if args.claim == (args.shard_index is not None):
        print("pick exactly one of --shard-index I or --claim with "
              "--shards", file=sys.stderr)
        return 2
    if args.shard_index is not None \
            and not 0 <= args.shard_index < args.shards:
        print("--shard-index %d outside 0..%d"
              % (args.shard_index, args.shards - 1), file=sys.stderr)
        return 2
    _, plan, sessions = run_churn_shard(
        campaign, args.shards, shard_index=args.shard_index,
        claim=args.claim)
    return _report_shard_sessions(plan, sessions, args.journal)


def _cmd_campaign_merge(args):
    from repro.exec.aggregate import (
        AggregateError,
        CoverageError,
        format_cdf_line,
        format_status_line,
        merge_campaign,
        write_merge_output,
        write_rows_csv,
    )
    from repro.exec.manifest import ManifestError

    if not args.dir:
        print("campaign merge needs the campaign directory (the one "
              "holding shards/ or manifest.jsonl)", file=sys.stderr)
        return 2
    try:
        merged = merge_campaign(args.dir, partial=args.partial)
    except CoverageError as err:
        print("cannot certify merge of %s: %s" % (args.dir, err),
              file=sys.stderr)
        return 4
    except (AggregateError, ManifestError, FileNotFoundError, OSError) as err:
        print("cannot merge %s: %s" % (args.dir, err), file=sys.stderr)
        return 2
    for warning in merged.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    if merged.labels is not None:
        print(merged.render_table())
    print(format_status_line(merged), file=sys.stderr)
    print("  " + format_cdf_line(merged), file=sys.stderr)
    if args.csv:
        count = write_rows_csv(args.csv, merged)
        print("rows: %d -> %s" % (count, args.csv), file=sys.stderr)
    if args.out:
        written = write_merge_output(merged, args.out)
        print("merged artifacts: %s -> %s"
              % (", ".join(sorted(written)), args.out), file=sys.stderr)
    if not merged.complete:
        print("partial merge: %d gap(s), %d unfinished trial(s) — NOT a "
              "certified campaign result"
              % (len(merged.gaps), len(merged.unfinished)),
              file=sys.stderr)
    return 0


def _cmd_campaign_watch(args):
    from repro.exec.aggregate import watch_campaign

    if not args.dir:
        print("campaign watch needs the campaign directory", file=sys.stderr)
        return 2
    try:
        return watch_campaign(args.dir, sys.stdout, interval=args.interval,
                              csv_path=args.csv, once=args.once)
    except KeyboardInterrupt:
        print("\nwatch interrupted; shards keep running", file=sys.stderr)
        return 130


def cmd_campaign(args):
    if args.name == "resume":
        return _cmd_campaign_resume(args)
    if args.name == "merge":
        return _cmd_campaign_merge(args)
    if args.name == "watch":
        return _cmd_campaign_watch(args)
    campaign = _campaign_from(args)
    if args.name == "churn":
        if args.dir:
            print("positional DIR is only for 'campaign resume', 'merge' "
                  "and 'watch'; use --journal DIR to journal a churn run",
                  file=sys.stderr)
            return 2
        if args.shards:
            return _cmd_campaign_churn_sharded(args, campaign)
        labels, result, manifest = run_churn(campaign)
        return _report_churn(labels, result, manifest)
    raise AssertionError("unreachable: argparse restricts choices")


def cmd_chaos(args):
    import tempfile

    from repro.exec.chaos import ChaosError, run_chaos

    root = args.dir or tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        return run_chaos(root, jobs=args.jobs, seed=args.seed,
                         trials=args.trials, duration=args.duration,
                         timeout=args.timeout)
    except ChaosError as err:
        print("chaos harness error: %s" % err, file=sys.stderr)
        return 2


def cmd_cache(args):
    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print("removed %d cache entries from %s" % (removed, cache.root))
        return 0
    stats = cache.stats()
    print("cache dir : %s" % stats["dir"])
    print("entries   : %d" % stats["entries"])
    print("size      : %.1f KiB" % (stats["bytes"] / 1024.0))
    if args.list:
        shown = 0
        for doc in cache.iter_entries():
            if shown >= args.list:
                break
            print("  " + cache.describe_entry(doc))
            shown += 1
    return 0


def cmd_connectivity(args):
    scenario = build_scenario(_scenario_from(args))
    bound = connectivity_ratio(scenario.mobility, args.duration,
                               samples=args.samples)
    print("all-pairs physical connectivity: %.4f" % bound)
    return 0


def cmd_audit(args):
    config = _scenario_from(args).replaced(loop_check=True)
    scenario = build_scenario(config)
    try:
        scenario.run()
    except LoopError as err:
        # The checker recorded the breach before raising; the run stops
        # at the first one.
        print("breach           : %s" % err)
    checker = scenario.loop_checker
    print("table audits run : %d" % checker.checks_run)
    print("violations       : %d" % len(checker.violations))
    print("%-16s : %s" % (config.protocol.upper() + " loop-free",
                          "YES" if not checker.violations else "NO"))
    return 0 if not checker.violations else 1


def cmd_lint(args):
    from repro.lint import cli as lint_cli

    return lint_cli.run(args, sys.stdout)


def cmd_bench(args):
    from repro.bench import cli as bench_cli

    return bench_cli.run(args, sys.stdout)


def cmd_trace(args):
    from repro.obs import cli as trace_cli

    return trace_cli.run(args, sys.stdout)


def cmd_verify(args):
    from repro.verify import cli as verify_cli

    return verify_cli.run(args, sys.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario")
    _add_scenario_args(p)
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="inject the fault plan serialized in this JSON file "
                        "(see examples/churn_plan.json)")
    p.add_argument("--invariants", action="store_true",
                   help="run the invariant monitor (implied by --faults); "
                        "exit 1 on any violation")
    p.add_argument("--trace", default=None, metavar="OUT.jsonl",
                   help="record a structured event trace (repro.obs) and "
                        "write it to this JSONL file (gzip-compressed "
                        "when the name ends in .gz)")
    p.add_argument("--profile", action="store_true",
                   help="print event-dispatch counters and per-phase "
                        "timers to stderr after the run")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "profile",
        help="run one scenario under the collapsed-stack sampler "
             "(flamegraph export) and print hot-loop counters",
    )
    _add_scenario_args(p)
    p.add_argument("--flame", default=None, metavar="OUT.folded",
                   help="write collapsed stacks ('stack count' lines) to "
                        "this file; render with flamegraph.pl or "
                        "speedscope")
    p.add_argument("--interval", type=float, default=5.0, metavar="MS",
                   help="sampling interval in milliseconds (default 5)")
    p.add_argument("--top", type=int, default=10,
                   help="without --flame: print the N heaviest stacks "
                        "(default 10)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("compare", help="compare protocols on one workload")
    _add_scenario_args(p)
    _add_exec_args(p)
    p.add_argument("--protocols", default="ldr,aodv,dsr,olsr")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--flows", type=int, default=10)
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_exec_args(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("figure", help="regenerate a figure")
    p.add_argument("name", choices=["fig2", "fig3", "fig4", "fig5", "fig6",
                                    "fig7"])
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_exec_args(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("campaign", help="run a named extra campaign")
    p.add_argument("name", choices=["churn", "resume", "merge", "watch"])
    p.add_argument("dir", nargs="?", default=None,
                   help="campaign directory (for 'resume': the directory "
                        "holding manifest.jsonl; for 'merge'/'watch': the "
                        "root holding shards/ or a plain journaled "
                        "campaign)")
    p.add_argument("--shards", type=int, default=None, metavar="K",
                   help="partition the campaign's trial keys into K "
                        "deterministic shards; run one of them (requires "
                        "--journal DIR plus --shard-index or --claim)")
    p.add_argument("--shard-index", type=int, default=None, metavar="I",
                   help="which shard of --shards K this process runs "
                        "(0-based)")
    p.add_argument("--claim", action="store_true",
                   help="instead of --shard-index, atomically claim "
                        "unowned shards from the shared claim board under "
                        "DIR/shards/claims/ and run them until none are "
                        "left (coordinator-free work stealing)")
    p.add_argument("--partial", action="store_true",
                   help="for 'merge'/'watch': render whatever coverage "
                        "exists instead of refusing to certify an "
                        "incomplete campaign")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="for 'merge': write per-trial rows as CSV; for "
                        "'watch': append rows to PATH as they land")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="for 'merge': write table.txt, rows.csv, cdf.csv "
                        "and merged trace artifacts under DIR")
    p.add_argument("--interval", type=float, default=2.0,
                   help="for 'watch': seconds between journal polls "
                        "(default 2)")
    p.add_argument("--once", action="store_true",
                   help="for 'watch': render one snapshot and exit "
                        "(0 when the campaign is complete, 1 otherwise)")
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--trace", nargs="?", const="traces", default=None,
                   metavar="DIR",
                   help="keep a per-trial JSONL trace artifact under DIR "
                        "(default ./traces); inspect with 'repro trace'")
    p.add_argument("--gzip", action="store_true",
                   help="gzip-compress trace artifacts (*.trace.jsonl.gz); "
                        "readers accept both forms transparently")
    p.add_argument("--journal", default=None, metavar="DIR",
                   help="journal the campaign under DIR (manifest.jsonl + "
                        "cache/ + traces/): crash-tolerant, interruptible "
                        "with SIGINT/SIGTERM, resumable with "
                        "'repro campaign resume DIR'")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts after a trial's first failure "
                        "(default 1)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-trial wall-clock deadline in seconds, "
                        "enforced inside the worker; it also sets the "
                        "stall budget after which a silent pool worker is "
                        "presumed wedged and the pool is recycled")
    p.add_argument("--quarantine-after", type=int, default=None,
                   metavar="N",
                   help="quarantine a trial after N failed attempts "
                        "(reported in the table, not campaign-fatal) "
                        "instead of failing the campaign")
    _add_exec_args(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "chaos",
        help="crash-tolerance self-test: kill workers and the driver "
             "mid-campaign, corrupt journal/cache/trace bytes, resume, "
             "and assert byte-identical results",
    )
    p.add_argument("dir", nargs="?", default=None,
                   help="working directory for the clean and chaos "
                        "campaign dirs (default: a fresh temp dir)")
    p.add_argument("--jobs", type=int, default=2,
                   help="worker processes for both runs (default 2)")
    p.add_argument("--seed", type=int, default=7,
                   help="seed for the fault-choice RNG ('exec' stream)")
    p.add_argument("--trials", type=int, default=2,
                   help="seeds per (protocol) cell of the healthy grid")
    p.add_argument("--duration", type=float, default=6.0,
                   help="sim duration of the healthy trials (seconds)")
    p.add_argument("--timeout", type=float, default=20.0,
                   help="per-trial deadline; the poison trial blows it "
                        "deterministically every attempt")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    p.add_argument("--cache-dir", default=None,
                   help="cache location (default $REPRO_CACHE_DIR or "
                        "~/.cache/repro-ldr)")
    p.add_argument("--list", type=int, nargs="?", const=20, default=0,
                   metavar="N", help="list up to N entries (default 20)")
    p.add_argument("--clear", action="store_true", help="delete all entries")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("connectivity", help="physical connectivity bound")
    _add_scenario_args(p)
    p.add_argument("--samples", type=int, default=25)
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("audit",
                       help="loop-freedom audit of --protocol (default ldr)")
    _add_scenario_args(p)
    p.set_defaults(func=cmd_audit)

    from repro.lint.cli import build_parser as build_lint_parser

    p = sub.add_parser(
        "lint",
        parents=[build_lint_parser(add_help=False)],
        help="determinism & protocol-conformance static analysis",
    )
    p.set_defaults(func=cmd_lint)

    from repro.bench.cli import build_parser as build_bench_parser

    p = sub.add_parser(
        "bench",
        parents=[build_bench_parser(add_help=False)],
        help="kernel microbenchmarks with a speedup-regression gate",
    )
    p.set_defaults(func=cmd_bench)

    from repro.obs.cli import register_parser as register_trace_parser

    p = sub.add_parser(
        "trace",
        help="summarize, filter, replay, or diff JSONL trace artifacts",
    )
    register_trace_parser(p)
    p.set_defaults(func=cmd_trace)

    from repro.verify.cli import register_parser as register_verify_parser

    p = sub.add_parser(
        "verify",
        help="counterexample suite, offline replay, and verdict grid",
    )
    register_verify_parser(p)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
