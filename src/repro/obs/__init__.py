"""Observability: structured traces, trace files, and profiling.

The production story the ROADMAP asks for needs more than aggregate
metrics — it needs the replayable pcap+route-log of every trial.  This
package provides it:

* :mod:`repro.obs.events` — the :class:`TraceEvent` model and the
  canonical, deterministic serialization contract (schema-versioned).
* :mod:`repro.obs.recorder` — :class:`TraceRecorder`, which instruments
  a scenario (channel, nodes, protocols, fault injector, invariant
  monitor) and records the event stream under a bounded retention policy.
* :mod:`repro.obs.writer` / :mod:`repro.obs.reader` — streaming JSONL
  trace files; byte-identical for identical ``(config, seed, fault_plan)``.
* :mod:`repro.obs.profile` — the :class:`Profiler` counter/timer registry
  every :class:`~repro.sim.simulator.Simulator` carries (hot-path
  counters are deterministic, wall-clock phase timers are host-side
  only), plus the :class:`StackSampler` collapsed-stack flamegraph
  exporter behind ``repro profile --flame``.
* :mod:`repro.obs.cli` — the ``repro trace`` subcommands (summary, show,
  routes, diff).
"""

from repro.obs.events import EVENT_KINDS, SCHEMA_VERSION, TraceEvent, jsonable
from repro.obs.profile import Profiler, StackSampler
from repro.obs.reader import TraceError, iter_trace, read_trace, trace_ok
from repro.obs.recorder import POLICIES, TraceRecorder
from repro.obs.writer import JsonlTraceWriter, trace_header, write_trace

__all__ = [
    "EVENT_KINDS",
    "JsonlTraceWriter",
    "POLICIES",
    "Profiler",
    "SCHEMA_VERSION",
    "StackSampler",
    "TraceError",
    "TraceEvent",
    "TraceRecorder",
    "iter_trace",
    "jsonable",
    "read_trace",
    "trace_header",
    "trace_ok",
    "write_trace",
]
