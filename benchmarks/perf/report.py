"""Metric definitions and result documents (no ``repro`` import here).

``BENCHMARK.json`` at the repository root declares every metric's name,
unit, direction and bound; this module derives the values from what the
child processes measured and formats them.
"""

import json
import os
import pathlib
import platform
import re
import statistics
import subprocess

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: The form every metric and workload name in BENCHMARK.json must have.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Layers whose self time is reported in seconds: every workload runs
#: them.  ``faults`` (only ``churn``) and ``obs`` (only ``campaign``) are
#: reported as shares and counts, so an idle layer reads 0 as a ratio.
TIMED_LAYERS = ("sim", "net.channel", "net.mac", "net.node", "proto",
                "traffic", "mobility", "metrics", "exec", "experiments")
SHARE_ONLY_LAYERS = ("faults", "obs")

#: Control-packet kinds the compared protocols send.
CONTROL_KINDS = ("rreq", "rrep", "rerr", "hello", "tc")


def load_spec(path=SPEC_PATH):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec, section):
    """``{name: unit}`` for ``section`` ('end_to_end' or 'per_layer')."""
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def end_to_end_metrics(timed, setup_samples):
    """The end-to-end values of one workload's untraced run."""
    return {
        "wall_s": timed["wall_s"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def _function_sum(functions, field, match):
    return sum(row[field] for row in functions if match(row["name"]))


def _spatial(name):
    return name.startswith("net.spatial.")


def layer_metrics(ledger, totals, trace_bytes, untraced):
    """The per-layer values of one traced run.

    ``ledger`` is the traced child's ledger (``layers.json``), ``totals``
    the traced pass's summed counters, and ``untraced`` the untraced run's
    ``wall_s`` and ``resume_s`` (the same cold + warm work, untraced).
    """
    wall = ledger["wall_s"]
    layers = ledger["layers"]
    functions = ledger["functions"]
    profile = totals["profile"]
    collector = totals["collector"]

    def layer(name, field):
        return layers.get(name, {}).get(field, 0)

    def named(field, suffix):
        return _function_sum(functions, field, lambda n: n.endswith(suffix))

    values = {}
    for name in TIMED_LAYERS + SHARE_ONLY_LAYERS:
        values[name + ".calls"] = layer(name, "calls")
        values[name + ".share"] = layer(name, "self_s") / wall
        if name in TIMED_LAYERS:
            values[name + ".self_s"] = layer(name, "self_s")

    events = profile.get("sim.events_dispatched", 0)
    transmits = profile.get("channel.transmits", 0)
    sends = profile.get("mac.sends", 0)
    values.update({
        "sim.events": events,
        "sim.scheduled": ledger["scheduled"],
        "sim.wasted_frac": 1.0 - events / ledger["scheduled"],
        "sim.ns_per_event": 1e9 * layer("sim", "self_s") / events,
        "sim.events_per_s": events / untraced["wall_s"],
        "net.channel.transmits": transmits,
        "net.channel.neighbor_queries":
            profile.get("channel.neighbor_queries", 0),
        "net.channel.receptions_per_tx":
            profile.get("channel.receptions", 0) / transmits,
        "net.channel.ns_per_tx": 1e9 * layer("net.channel", "self_s") / transmits,
        "net.spatial.near_calls": _function_sum(
            functions, "calls", lambda n: _spatial(n) and n.endswith(".near")),
        "net.spatial.self_s": _function_sum(functions, "self_s", _spatial),
        "net.mac.sends": sends,
        "net.mac.frames_rx": profile.get("mac.frames_rx", 0),
        "net.mac.retry_frac": collector["mac_retries"] / sends,
        "net.mac.queue_drops": collector["queue_drops"],
        "net.mac.give_ups": collector["mac_give_ups"],
        "proto.on_packet_calls": _function_sum(
            functions, "calls",
            lambda n: n.endswith(".on_packet") and not n.startswith("net.")),
        "proto.data_tx_per_delivered":
            collector["data_transmissions"] / collector["data_delivered"],
        "faults.table_changes": named("calls", "InvariantMonitor.on_table_change"),
        "obs.events_recorded": totals["trace_events"],
        "obs.bytes_written": trace_bytes,
        "obs.write_share": named("inclusive_s", "obs.writer.write_trace") / wall,
        "obs.verify_share": named("inclusive_s", "obs.reader.trace_ok") / wall,
        "exec.journal_appends": named("calls", "CampaignManifest.record_state"),
        "exec.journal_s": named("inclusive_s", "CampaignManifest.record_state"),
        "exec.cache_lookups": named("calls", "ResultCache.lookup"),
        "exec.cache_hit_frac":
            ledger["cached"] / named("calls", "ResultCache.lookup"),
        "exec.cache_put_s": named("inclusive_s", "ResultCache.put"),
        "exec.trial_key_s": named("inclusive_s", "exec.cache.trial_key"),
        "exec.resume_s": untraced["resume_s"],
        "experiments.build_s":
            named("inclusive_s", "experiments.scenario.Scenario.__init__"),
        "trace.overhead_frac":
            wall / (untraced["wall_s"] + untraced["resume_s"]) - 1.0,
    })
    control = collector["control_transmissions"]
    for kind in CONTROL_KINDS:
        values["proto.ctl_tx." + kind] = control.get(kind, 0)
    return values


def with_units(values, units):
    """``{name: {"value", "unit"}}``; the names must be exactly the units'."""
    if set(values) != set(units):
        raise ValueError("computed and declared metrics differ: %s"
                         % sorted(set(values) ^ set(units)))
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def format_value(value):
    """Every digit as measured: ``repr`` for floats, plain ints."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def metric_lines(workload, metrics):
    return ["%s %s %s %s" % (workload, name, format_value(m["value"]), m["unit"])
            for name, m in metrics.items()]


def identity_lines(workload, identity):
    """Identity lines start with ``#``: they are printed, not metrics."""
    return ["# %s %s %s" % (workload, key,
                            format_value(value) if value is not None else "-")
            for key, value in sorted(identity.items())]


def host_fingerprint():
    """Python version, CPU count and model, and the git commit measured."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = _git("rev-parse", "HEAD")
            if _git("status", "--porcelain", "--", "src"):
                sha += "+modified-src"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "git_sha": sha}


def _git(*args):
    return subprocess.run(("git",) + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=10, check=True).stdout.strip()
