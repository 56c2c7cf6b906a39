"""Chaos self-test: crash the campaign fabric on purpose, prove identity.

``repro chaos`` runs the same small churn-style campaign twice:

* a **clean** journaled run, uninterrupted, in-process;
* a **chaos** run driven as a subprocess (``repro campaign resume``) that
  this harness abuses mid-flight — a random pool worker is SIGKILLed,
  then the whole driver is SIGKILLed, the journal tail is truncated by a
  random byte count, one finished cache entry is corrupted, and one trace
  artifact is torn — before resuming the campaign in-process.

The verdict is the fabric's core promise: after arbitrary crash/corrupt
interleavings, ``resume`` yields result rows and trace artifacts
**byte-identical** to the uninterrupted run, with the designated poison
trial quarantined (not campaign-fatal) in both, and no pool worker of the
killed driver left running.  A final shard leg
re-runs the grid as two shards and asserts the merged result matches the
clean run too — identity under partitioning, not just under crashes.
The harness is wired into CI as a smoke gate; on failure the journal is
the artifact to read.

Fault choices draw from the dedicated ``'exec'`` RNG stream, so a chaos
failure reproduces from its seed.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

from repro.exec.manifest import (
    campaign_paths,
    resume_campaign,
    start_campaign,
)
from repro.experiments.campaigns import node_scenario
from repro.sim.rng import RngStreams

#: Seconds the harness waits for the chaos child to make progress.
CHILD_PROGRESS_TIMEOUT = 120.0

#: Attempt ceiling for the poison trial (quarantine_after).
POISON_ATTEMPTS = 2

#: Seconds a killed driver's pool workers get to exit on their own.
ORPHAN_GRACE = 5.0


class ChaosError(RuntimeError):
    """The harness could not complete (distinct from an identity failure)."""


def chaos_grid(trials=2, duration=6.0, poison=True):
    """The chaos campaign's configs; the LAST one is the poison trial.

    Healthy trials are tiny 10-node scenarios that finish well inside the
    engine deadline.  The poison trial is a deliberately huge scenario
    whose wall-clock blows every per-trial deadline, so it fails each
    attempt deterministically and must end up quarantined — data-driven
    poison, no code paths faked.
    """
    configs = []
    for protocol in ("ldr", "aodv"):
        for seed in range(1, trials + 1):
            configs.append(node_scenario(
                10, 3, 0.0, duration, seed=seed, protocol=protocol,
                invariant_check=True))
    if poison:
        configs.append(node_scenario(
            200, 40, 0.0, 600.0, seed=1, protocol="ldr",
            invariant_check=True))
    return configs


def _row_bytes(row):
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def _snapshot(result, trace_dir):
    """``(rows-by-index, trace-bytes-by-key, quarantined-indices)``."""
    rows = {}
    traces = {}
    quarantined = set()
    for trial in result.trials:
        if trial.quarantined:
            quarantined.add(trial.index)
        if trial.ok:
            rows[trial.index] = _row_bytes(trial.row)
            artifact = trace_dir / (trial.key + ".trace.jsonl")
            if artifact.is_file():
                traces[trial.key] = artifact.read_bytes()
    return rows, traces, quarantined


def _child_env():
    env = dict(os.environ)
    package_root = pathlib.Path(__file__).resolve().parents[2]
    extra = str(package_root)
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = extra + (os.pathsep + current if current else "")
    return env


def _wait_for_done_record(manifest_path, deadline):
    """Block until the child journals its first terminal ``done`` record."""
    needle = b'"state":"done"'
    while time.monotonic() < deadline:
        try:
            if needle in manifest_path.read_bytes():
                return
        except OSError:
            pass
        time.sleep(0.1)
    raise ChaosError(
        "chaos child made no progress within %gs (journal: %s)"
        % (CHILD_PROGRESS_TIMEOUT, manifest_path))


def _pool_worker_pids(driver_pid):
    """The driver's direct children via /proc (Linux); [] elsewhere."""
    pids = []
    task_dir = pathlib.Path("/proc/%d/task" % driver_pid)
    try:
        for task in task_dir.iterdir():
            children = task / "children"
            try:
                text = children.read_text()
            except OSError:
                continue
            pids.extend(int(pid) for pid in text.split())
    except OSError:
        return []
    return sorted(set(pids))


def _reap(pids, grace):
    """Wait up to ``grace`` s for ``pids`` to exit; SIGKILL and return the
    ones still running then (a zombie's empty cmdline counts as gone)."""
    deadline = time.monotonic() + grace
    alive = [pid for pid in pids if _cmdline(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _cmdline(pid)]
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass  # exited meanwhile
    return alive


def _cmdline(pid):
    try:
        return pathlib.Path("/proc/%d/cmdline" % pid).read_bytes()
    except OSError:
        return b""


def kill_random_worker(driver_pid, rng, deadline):
    """SIGKILL one random pool worker of ``driver_pid``; False if none."""
    while time.monotonic() < deadline:
        pids = _pool_worker_pids(driver_pid)
        if pids:
            victim = pids[rng.randrange(len(pids))]
            try:
                os.kill(victim, signal.SIGKILL)
            except OSError:
                continue  # raced with worker exit; pick again
            return victim
        time.sleep(0.1)
    return None


def truncate_journal_tail(manifest_path, floor_size, rng):
    """Chop 1-80 random bytes off the journal, never below ``floor_size``.

    Mimics the torn tail a crash mid-append leaves.  ``floor_size`` (the
    journal's size right after creation) keeps the header and trial
    registration intact — a real single-writer crash can only tear the
    record being appended, not finished earlier ones.
    """
    size = manifest_path.stat().st_size
    if size <= floor_size:
        return 0
    chopped = min(rng.randrange(1, 81), size - floor_size)
    with open(manifest_path, "rb+") as handle:
        handle.truncate(size - chopped)
    return chopped


def corrupt_cache_entry(cache_dir, rng):
    """Truncate one cached row file mid-JSON; returns its path or None."""
    entries = sorted(pathlib.Path(cache_dir).glob("??/*.json"))
    if not entries:
        return None
    victim = entries[rng.randrange(len(entries))]
    data = victim.read_bytes()
    victim.write_bytes(data[:max(1, len(data) // 2)])
    return victim


def corrupt_trace_artifact(trace_dir, rng):
    """Tear one trace artifact's tail; returns its path or None."""
    artifacts = sorted(pathlib.Path(trace_dir).glob("*.trace.jsonl*"))
    if not artifacts:
        return None
    victim = artifacts[rng.randrange(len(artifacts))]
    data = victim.read_bytes()
    victim.write_bytes(data[:max(1, len(data) // 2)])
    return victim


def run_chaos(root, jobs=2, seed=7, trials=2, duration=6.0, timeout=20.0,
              stream=None):
    """Run the chaos self-test under ``root``; returns a process exit code.

    ``root`` gains two campaign directories: ``clean/`` (the reference
    run) and ``chaos/`` (the abused one).  Progress and the verdict are
    written to ``stream`` (default stdout).
    """
    out = stream if stream is not None else sys.stdout

    def say(message):
        out.write(message + "\n")
        out.flush()

    root = pathlib.Path(root)
    rng = RngStreams(seed).stream("exec")
    configs = chaos_grid(trials=trials, duration=duration)
    poison_index = len(configs) - 1
    say("chaos: %d trial(s) incl. 1 poison, jobs=%d, seed=%d"
        % (len(configs), jobs, seed))

    # -- reference: one uninterrupted journaled run --------------------
    clean_root = root / "clean"
    manifest, engine = start_campaign(
        clean_root, configs, name="chaos-clean",
        jobs=jobs, timeout=timeout, quarantine_after=POISON_ATTEMPTS,
        backoff_base=0.0, trace=True)
    clean_result = engine.run(configs)
    manifest.close()
    _, _, clean_traces_dir = campaign_paths(clean_root)
    clean_rows, clean_traces, clean_quarantined = _snapshot(
        clean_result, clean_traces_dir)
    say("clean run: %d/%d rows, %d quarantined, %d trace artifact(s)"
        % (len(clean_rows), len(configs), len(clean_quarantined),
           len(clean_traces)))
    if poison_index not in clean_quarantined:
        say("FAIL: poison trial #%d was not quarantined in the clean run"
            % poison_index)
        return 1

    # -- victim: a journaled run abused mid-flight ---------------------
    chaos_root = root / "chaos"
    manifest, _ = start_campaign(
        chaos_root, configs, name="chaos-victim",
        jobs=jobs, timeout=timeout, quarantine_after=POISON_ATTEMPTS,
        backoff_base=0.0, trace=True)
    manifest.close()
    manifest_path, cache_dir, trace_dir = campaign_paths(chaos_root)
    floor_size = manifest_path.stat().st_size

    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "resume",
         str(chaos_root)],
        env=_child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + CHILD_PROGRESS_TIMEOUT
        _wait_for_done_record(manifest_path, deadline)
        victim = kill_random_worker(child.pid, rng, deadline)
        if victim is None:
            say("note: no pool worker found to kill (platform without "
                "/proc?); skipping worker kill")
        else:
            say("killed pool worker pid %d" % victim)
        time.sleep(0.5)  # let the driver absorb (or miss) the breakage
        workers = _pool_worker_pids(child.pid)
        child.kill()
        child.wait()
        say("killed campaign driver pid %d" % child.pid)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    # The killed driver's pool workers exit on their own once they see
    # it gone (worker.exit_with_parent); one that does not is an orphan.
    orphans = _reap(workers, ORPHAN_GRACE)

    chopped = truncate_journal_tail(manifest_path, floor_size, rng)
    say("truncated %d byte(s) off the journal tail" % chopped)
    corrupted = corrupt_cache_entry(cache_dir, rng)
    say("corrupted cache entry: %s" % (corrupted.name if corrupted else
                                       "(none present)"))
    torn = corrupt_trace_artifact(trace_dir, rng)
    say("tore trace artifact: %s" % (torn.name if torn else
                                     "(none present)"))

    # -- resume and compare --------------------------------------------
    manifest, chaos_result = resume_campaign(chaos_root)
    manifest.close()
    chaos_rows, chaos_traces, chaos_quarantined = _snapshot(
        chaos_result, trace_dir)
    say("resumed run: %d/%d rows, %d quarantined"
        % (len(chaos_rows), len(configs), len(chaos_quarantined)))

    problems = []
    if orphans:
        problems.append("pool worker(s) %s outlived the killed driver by "
                        "%gs" % (orphans, ORPHAN_GRACE))
    if chaos_result.interrupted:
        problems.append("resumed run reports interruption: %s"
                        % chaos_result.interrupted)
    if chaos_rows.keys() != clean_rows.keys():
        problems.append(
            "row coverage differs: clean=%s chaos=%s"
            % (sorted(clean_rows), sorted(chaos_rows)))
    for index in sorted(clean_rows.keys() & chaos_rows.keys()):
        if clean_rows[index] != chaos_rows[index]:
            problems.append("row #%d differs between clean and chaos runs"
                            % index)
    if chaos_traces.keys() != clean_traces.keys():
        problems.append(
            "trace coverage differs: clean=%d chaos=%d artifact(s)"
            % (len(clean_traces), len(chaos_traces)))
    for key in sorted(clean_traces.keys() & chaos_traces.keys()):
        if clean_traces[key] != chaos_traces[key]:
            problems.append("trace artifact %s differs" % key[:12])
    if chaos_quarantined != clean_quarantined:
        problems.append(
            "quarantine sets differ: clean=%s chaos=%s"
            % (sorted(clean_quarantined), sorted(chaos_quarantined)))
    if poison_index not in chaos_quarantined:
        problems.append("poison trial #%d not quarantined after resume"
                        % poison_index)

    if problems:
        for problem in problems:
            say("FAIL: " + problem)
        say("chaos: FAILED (%d problem(s)); journal: %s"
            % (len(problems), manifest_path))
        return 1

    # -- shard leg: partition, run both shards, merge, compare ---------
    problems = _shard_leg(root, configs, clean_rows, clean_quarantined,
                          jobs=jobs, timeout=timeout, say=say)
    if problems:
        for problem in problems:
            say("FAIL: " + problem)
        say("chaos: FAILED (%d problem(s) in the shard leg)"
            % len(problems))
        return 1

    say("chaos: OK — %d row(s) and %d trace artifact(s) byte-identical "
        "after crash+corrupt+resume; poison trial quarantined in both "
        "runs; 2-shard merge matches the clean run"
        % (len(clean_rows), len(clean_traces)))
    return 0


def _shard_leg(root, configs, clean_rows, clean_quarantined, jobs, timeout,
               say):
    """Run the grid as two shards, merge, compare to clean.

    Exercises the other half of the fabric's identity promise: results
    must be invariant not only under crash/resume but under *partitioning*
    — a K-shard campaign merged is the same campaign.
    """
    from repro.exec.aggregate import merge_campaign
    from repro.exec.shard import ShardPlan, start_shard

    shard_root = root / "sharded"
    plan = ShardPlan(2)
    say("shard leg: re-running the grid as %d shard(s)" % plan.shards)
    for index in range(plan.shards):
        manifest, engine, subset = start_shard(
            shard_root, configs, plan, index, name="chaos-clean",
            jobs=jobs, timeout=timeout, quarantine_after=POISON_ATTEMPTS,
            backoff_base=0.0, trace=True)
        engine.run([config for _, config in subset])
        manifest.close()

    merged = merge_campaign(shard_root)
    problems = []
    if not merged.complete:
        problems.append(
            "shard merge not complete: %d gap(s), %d unfinished"
            % (len(merged.gaps), len(merged.unfinished)))
        return problems
    merged_rows = {t.index: _row_bytes(t.row)
                   for t in merged.ordered_trials() if t.ok}
    merged_quarantined = {t.index for t in merged.ordered_trials()
                          if t.quarantined}
    if merged_rows.keys() != clean_rows.keys():
        problems.append("shard-merge row coverage differs: clean=%s "
                        "merged=%s"
                        % (sorted(clean_rows), sorted(merged_rows)))
    for index in sorted(clean_rows.keys() & merged_rows.keys()):
        if clean_rows[index] != merged_rows[index]:
            problems.append("row #%d differs between clean and merged "
                            "shard runs" % index)
    if merged_quarantined != clean_quarantined:
        problems.append("shard-merge quarantine set differs: clean=%s "
                        "merged=%s"
                        % (sorted(clean_quarantined),
                           sorted(merged_quarantined)))
    if not problems:
        say("shard leg: %d row(s) byte-identical, quarantine set matches"
            % len(merged_rows))
    return problems
