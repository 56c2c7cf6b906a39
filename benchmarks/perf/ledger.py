"""The layer ledger: spans at layer boundaries, folded into self time.

The harness measures ``repro`` from outside.  :class:`Instrumentation`
wraps public functions of the ``repro`` modules at class level — and
rebinds module-level functions wherever a ``repro`` module imported them
by name — before any ``Scenario`` is built, and :meth:`uninstall` puts
every original back.  Nothing under ``src/`` changes.

Every dispatched simulator event is a call from ``sim`` into a layer: the
callback is wrapped where it is scheduled (``schedule`` and
``schedule_reserved``; ``schedule_at`` goes through ``schedule``) and where
a :class:`~repro.sim.timers.Timer` is built, and it is attributed to the
module that owns it.  Direct cross-layer calls are wrapped at the public
functions listed in :meth:`Instrumentation.install`.

A span's self time is its duration minus that of its child spans,
accumulated online on a stack, so the layers' self times partition the
root span exactly.  Spans at trial, ``Simulator.run``, ``exec`` and ``obs``
level are also kept whole (name, start, end, parent, trial key); every
other span is folded into a per-(layer, function) row of calls, inclusive
and self seconds.
"""

import functools
import json
import sys
import time

#: Module prefix -> layer, most specific first.
LAYER_PREFIXES = (
    ("repro.sim", "sim"),
    ("repro.net.channel", "net.channel"),
    ("repro.net.spatial", "net.channel"),
    ("repro.net.mac", "net.mac"),
    ("repro.net.queue", "net.mac"),
    ("repro.net", "net.node"),
    ("repro.routing.loopcheck", "faults"),
    ("repro.routing", "proto"),
    ("repro.core", "proto"),
    ("repro.protocols", "proto"),
    ("repro.traffic", "traffic"),
    ("repro.mobility", "mobility"),
    ("repro.metrics", "metrics"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs"),
    ("repro.exec", "exec"),
    ("repro.experiments", "experiments"),
)

#: The benchmark's own time (everything outside a ``repro`` span), and
#: callbacks owned by no ``repro`` module.
HARNESS = "harness"
OTHER = "other"


def layer_of(module):
    """The layer owning ``module`` (a dotted module name or None)."""
    module = module or ""
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


def span_name(func):
    """``<module without 'repro.'>.<qualname>`` for a function."""
    module = getattr(func, "__module__", None) or "?"
    if module.startswith("repro."):
        module = module[len("repro."):]
    qualname = getattr(func, "__qualname__", None) or type(func).__name__
    return "%s.%s" % (module, qualname)


class Tracer:
    """Span stack, folded per-function table and kept span records."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # open spans: [start, seconds spent in children]
        self._open_ids = []  # ids of the open kept spans
        #: ``(layer, name) -> [calls, inclusive s, self s]``.
        self.table = {}
        #: Kept spans, in start order.
        self.records = []
        #: The trial key shared by the spans of the trial now running.
        self.trial = None
        #: ``schedule``/``schedule_reserved`` calls seen.
        self.scheduled = 0
        self._callback_stats = {}

    def stats(self, layer, name):
        return self.table.setdefault((layer, name), [0, 0.0, 0.0])

    def _close(self, stats, frame):
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - frame[1]
        if stack:
            stack[-1][1] += duration
        return end

    def wrap(self, fn, layer, name, keep=False, trial=None):
        """``fn`` inside a span of ``(layer, name)``.

        ``keep`` also records the whole span.  ``trial`` says where a kept
        span's trial key comes from: ``None`` (the current one), a callable
        ``trial(args)`` evaluated before the call, ``"result"`` (the call
        returns it, as ``trial_key`` does) or ``"none"`` (the span covers
        many trials).
        """
        stats = self.stats(layer, name)
        stack = self._stack
        clock = self.clock
        close = self._close
        if not keep:
            def span(*args, **kwargs):
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(stats, frame)
        else:
            def span(*args, **kwargs):
                if trial == "none":
                    self.trial = None
                elif callable(trial):
                    self.trial = trial(args)
                record = {"id": len(self.records) + 1, "name": name,
                          "layer": layer,
                          "parent": self._open_ids[-1] if self._open_ids else None,
                          "trial": self.trial, "start": None, "end": None}
                self.records.append(record)
                self._open_ids.append(record["id"])
                frame = [clock(), 0.0]
                stack.append(frame)
                record["start"] = frame[0]
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    record["end"] = close(stats, frame)
                    self._open_ids.pop()
                    if trial == "result":
                        self.trial = record["trial"] = result
        functools.update_wrapper(span, fn)
        span._perf_span = True
        return span

    def callback(self, callback):
        """``callback`` wrapped in a span attributed to the module owning it."""
        if getattr(callback, "_perf_span", False):
            return callback  # already a span: do not count it twice
        func = getattr(callback, "__func__", callback)
        ident = getattr(func, "__code__", None) or type(func)
        stats = self._callback_stats.get(ident)
        if stats is None:
            stats = self.stats(layer_of(getattr(func, "__module__", None)),
                               span_name(func))
            self._callback_stats[ident] = stats
        stack = self._stack
        clock = self.clock
        close = self._close

        def fire(*args):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return callback(*args)
            finally:
                close(stats, frame)
        return fire

    def region(self, name, fn):
        """Run ``fn()`` as a kept harness span; returns ``(result, seconds)``."""
        index = len(self.records)
        result = self.wrap(fn, HARNESS, name, keep=True, trial="none")()
        record = self.records[index]
        return result, record["end"] - record["start"]

    def reset(self):
        """Forget everything measured so far (wrappers stay installed)."""
        for stats in self.table.values():
            stats[:] = [0, 0.0, 0.0]
        self.records.clear()
        self.trial = None
        self.scheduled = 0

    # -- reporting ---------------------------------------------------------

    def layers(self):
        """``{layer: {"calls", "self_s", "inclusive_s"}}`` over every row."""
        totals = {}
        for (layer, _), (calls, inclusive, self_s) in self.table.items():
            entry = totals.setdefault(
                layer, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
            entry["inclusive_s"] += inclusive
        return totals

    def functions(self):
        """Per-function rows, heaviest self time first."""
        rows = [{"layer": layer, "name": name, "calls": calls,
                 "inclusive_s": inclusive, "self_s": self_s}
                for (layer, name), (calls, inclusive, self_s)
                in self.table.items() if calls]
        rows.sort(key=lambda row: (-row["self_s"], row["layer"], row["name"]))
        return rows

    def write_spans(self, path):
        """Write the kept spans as JSON lines, times relative to the first."""
        origin = self.records[0]["start"] if self.records else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                doc = dict(record, start=record["start"] - origin,
                           end=record["end"] - origin)
                handle.write(json.dumps(doc, sort_keys=True) + "\n")


class Instrumentation:
    """Installs a :class:`Tracer` into the ``repro`` modules (and undoes it)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def method(self, cls, attr, keep=False, trial=None, layer=None):
        fn = vars(cls)[attr]
        self._patch(cls, attr, self.tracer.wrap(
            fn, layer or layer_of(fn.__module__), span_name(fn),
            keep=keep, trial=trial))

    def function(self, fn, keep=False, trial=None, name=None):
        """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
        wrapped = self.tracer.wrap(fn, layer_of(fn.__module__),
                                   name or span_name(fn), keep=keep,
                                   trial=trial)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def install(self):
        """Wrap the layer boundaries; returns self."""
        import repro.exec as rexec
        import repro.exec.worker as worker
        import repro.obs as obs
        from repro.experiments.scenario import PROTOCOLS, Scenario
        from repro.faults import InvariantMonitor
        from repro.metrics import MetricsCollector
        from repro.mobility import RandomWaypoint, StaticPlacement
        from repro.net import CsmaMac, Node, WirelessChannel
        from repro.net.spatial import GridIndex, ScanIndex
        from repro.sim import Simulator, Timer
        from repro.sim.events import SchedulerBase

        self._wrap_scheduling(SchedulerBase, Timer)
        self.method(Simulator, "run", keep=True)
        for cls, attrs in (
            (WirelessChannel, ("transmit", "neighbors_of", "in_range")),
            (GridIndex, ("near",)),
            (ScanIndex, ("near",)),
            (CsmaMac, ("send", "handle_frame")),
            (Node, ("send_data", "deliver")),
            (RandomWaypoint, ("position", "positions_at")),
            (StaticPlacement, ("position", "positions_at")),
            (InvariantMonitor, ("on_table_change", "check_all")),
            (obs.TraceRecorder, ("record",)),
            (Scenario, ("__init__", "run")),
        ):
            for attr in attrs:
                self.method(cls, attr)
        for cls in dict.fromkeys(protocol for protocol, _ in PROTOCOLS.values()):
            for attr in ("on_packet", "send_data"):
                if attr in vars(cls):
                    self.method(cls, attr)
        for attr in sorted(vars(MetricsCollector)):
            if attr.startswith("on_"):
                self.method(MetricsCollector, attr)

        self.method(rexec.ResultCache, "lookup", keep=True,
                    trial=lambda args: args[1])
        self.method(rexec.ResultCache, "put", keep=True,
                    trial=lambda args: args[1])
        self.method(rexec.CampaignManifest, "record_state", keep=True,
                    trial=lambda args: args[0].entries[args[1]].key)
        self.method(rexec.CampaignEngine, "run", keep=True, trial="none")
        self.function(rexec.trial_key, keep=True, trial="result")
        self.function(rexec.resume_campaign, keep=True, trial="none")
        self.function(worker.run_trial_payload, keep=True, name="trial")
        self.function(obs.write_trace, keep=True)
        self.function(obs.trace_ok, keep=True)
        return self

    def _wrap_scheduling(self, scheduler_cls, timer_cls):
        tracer = self.tracer
        event = tracer.callback
        schedule = tracer.wrap(vars(scheduler_cls)["schedule"], "sim",
                               "sim.events.SchedulerBase.schedule")
        reserved = tracer.wrap(vars(scheduler_cls)["schedule_reserved"], "sim",
                               "sim.events.SchedulerBase.schedule_reserved")
        timer_init = vars(timer_cls)["__init__"]

        def schedule_event(sched, delay, callback, *args):
            tracer.scheduled += 1
            return schedule(sched, delay, event(callback), *args)

        def schedule_reserved_event(sched, at, seq, callback, *args):
            tracer.scheduled += 1
            return reserved(sched, at, seq, event(callback), *args)

        def init_timer(timer, sim, callback):
            timer_init(timer, sim, event(callback))

        self._patch(scheduler_cls, "schedule", schedule_event)
        self._patch(scheduler_cls, "schedule_reserved", schedule_reserved_event)
        self._patch(timer_cls, "__init__", init_timer)

    def uninstall(self):
        """Put every wrapped function back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def trial_counters(scenario, report):
    """One trial's deterministic counters: Profiler and collector."""
    collector = scenario.metrics
    trace = scenario.trace
    return {
        "profile": report.profile_dict()["counters"],
        "collector": {
            "data_originated": collector.data_originated,
            "data_delivered": collector.data_delivered,
            "data_transmissions": collector.data_transmissions,
            "latency_sum": collector.latency_sum,
            "hop_sum": collector.hop_sum,
            "data_dropped": dict(sorted(collector.data_dropped.items())),
            "control_transmissions":
                dict(sorted(collector.control_transmissions.items())),
            "control_initiated":
                dict(sorted(collector.control_initiated.items())),
            "mac_retries": collector.mac_retries,
            "queue_drops": collector.queue_drops,
            "mac_give_ups": collector.mac_give_ups,
            "mac_receptions": collector.mac_receptions,
            "duplicate_delivered": collector.duplicate_delivered,
            "invariant_violations":
                dict(sorted(collector.invariant_violations.items())),
        },
        "trace_events": trace.recorded if trace is not None else 0,
    }


class CounterProbe:
    """Captures every trial's :func:`trial_counters` as its Scenario ends."""

    def __init__(self):
        self.trials = []
        self._original = None

    def install(self):
        from repro.experiments.scenario import Scenario

        run = self._original = vars(Scenario)["run"]
        trials = self.trials

        def run_and_count(scenario):
            report = run(scenario)
            trials.append(trial_counters(scenario, report))
            return report

        Scenario.run = functools.update_wrapper(run_and_count, run)
        return self

    def uninstall(self):
        from repro.experiments.scenario import Scenario

        if self._original is not None:
            Scenario.run = self._original
            self._original = None
