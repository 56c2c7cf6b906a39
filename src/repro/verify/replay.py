"""Offline conformance replay: audit invariants from a trace alone.

Third parties should not have to trust the simulator's online
:class:`~repro.faults.monitor.InvariantMonitor` — a ``.trace.jsonl(.gz)``
artifact carries everything needed to re-check the paper's claims with no
simulator in the loop.  :func:`replay_trace` rebuilds per-node routing
tables from the ``route`` events' ``(successor, metric, dst_own)``
payloads, tracks crashes and reboots from the structured ``fault``
events, and hands the tables to the engine the monitor runs online
(:mod:`repro.routing.loopcheck`):

* **loop** — walk every node's successor chain after each table change
  (Theorem 4, instantaneous loop freedom);
* **ordering** — along each chain, sequence numbers non-decreasing and
  feasible distances strictly decreasing for equal numbers (Theorem 2;
  only for LDR traces, mirroring the online wiring);
* **seqnum_ownership** — no node may hold a label fresher than the
  destination's own (``dst_own``) label ceiling, tracked across reboots;
* **dead_delivery / dead_transmit / dead_table_change** — crashed nodes
  neither receive, transmit, nor mutate tables (checked here, from the
  ``fault`` events).

The replay is a *conformance* check: for every trace, the offline
verdict must agree with the monitor's recorded ``violation`` events —
:attr:`ReplayResult.agreement` is False on any divergence, and the test
suite treats that as a failure in its own right.  With one engine, a
divergence means the trace does not carry the state the monitor saw:
agreement holds only for protocols whose ``successor()`` changes only
alongside a table-change notification (TORA's depends on neighbour
heights that change silently, so its replay can miss a loop).

Truncated traces (header ``truncated`` flag — the recorder's retention
cap dropped events) are never certified: the verdict is
``"inconclusive"`` regardless of what the retained suffix shows, because
a loop in the dropped prefix would be invisible.  ``reconvergence``
violations are monitor-only (they need live physical-connectivity
queries) and are excluded from the agreement comparison.
"""

from repro.obs.reader import iter_trace
from repro.routing.loopcheck import (
    first_breach,
    ownership_breaches,
    raise_ceiling,
)

#: Violation kinds the offline replay can re-derive from a trace.  The
#: monitor's ``reconvergence`` check is deliberately absent — it queries
#: live channel connectivity, which a trace does not carry.
REPLAY_KINDS = (
    "loop",
    "ordering",
    "seqnum_ownership",
    "dead_delivery",
    "dead_transmit",
    "dead_table_change",
)


def _comparable(value):
    """Serialized labels as comparable values (lists become tuples)."""
    if isinstance(value, list):
        return tuple(_comparable(item) for item in value)
    return value


class ReplayResult:
    """Outcome of replaying one trace."""

    def __init__(self, verdict, violations, recorded, truncated, events,
                 header, path=None):
        self.verdict = verdict
        self.violations = violations  # [(time, kind, detail)]
        self.recorded = recorded      # [(time, kind)] monitor-recorded
        self.truncated = truncated
        self.events = events
        self.header = header
        self.path = path

    def breakdown(self):
        counts = {}
        for _, kind, _ in self.violations:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    @property
    def agreement(self):
        """Offline replay vs online monitor, or None (truncated trace).

        Truncation drops ``violation`` events along with everything else,
        so there is nothing sound to compare against.
        """
        if self.truncated:
            return None
        mine = sorted((t, kind) for t, kind, _ in self.violations)
        return mine == sorted(self.recorded)

    def describe(self):
        bits = ["verdict=%s" % self.verdict,
                "events=%d" % self.events,
                "violations=%d" % len(self.violations)]
        agreement = self.agreement
        if agreement is None:
            bits.append("monitor-agreement=n/a(truncated)")
        else:
            bits.append("monitor-agreement=%s"
                        % ("yes" if agreement else "NO"))
        return " ".join(bits)


class _Table:
    """One node's routing table as rebuilt from its ``route`` events."""

    __slots__ = ("routes",)

    def __init__(self):
        self.routes = {}  # dst -> (successor, comparable metric)

    def successor(self, dst):
        route = self.routes.get(dst)
        return None if route is None else route[0]

    def route_metric(self, dst):
        route = self.routes.get(dst)
        return None if route is None else route[1]


class ReplayChecker:
    """Streaming invariant re-checker over trace events.

    Feeds the online monitor's own engine (:mod:`repro.routing.loopcheck`)
    with per-node tables rebuilt from the trace, kept in the monitor's walk
    order (node-id order; a crash deletes the node's table, a reboot
    re-inserts a fresh one), so agreement can be checked
    timestamp-for-timestamp.
    """

    def __init__(self, header):
        self.header = header
        config = header.get("config") or {}
        num_nodes = int(config.get("num_nodes", 0))
        self.check_ordering = config.get("protocol") == "ldr"
        self.duration = float(config.get("duration", 0.0))
        self._tables = {node: _Table() for node in range(num_nodes)}
        self._crashed = set()
        self._ceiling = {}   # dst -> freshest dst_own seen (comparable)
        self._route_dsts = set()
        self.violations = []  # (time, kind, detail)
        self.recorded = []    # (time, kind) from monitor violation events
        self.events = 0
        self._last_time = 0.0

    # -- event intake ----------------------------------------------------

    def feed(self, event):
        self.events += 1
        self._last_time = event.time
        handler = getattr(self, "_on_%s" % event.kind, None)
        if handler is not None:
            handler(event)

    def finish(self, destinations=None):
        """End-of-stream audit sweep, mirroring the monitor's check_all.

        ``destinations`` defaults to the header's ``destinations`` list
        (the traffic sinks the online sweep covered); for hand-built
        traces without one, every destination that ever appeared in a
        route event is swept instead.
        """
        if destinations is None:
            destinations = self.header.get("destinations")
        if destinations is None:
            destinations = sorted(self._route_dsts)
        when = self.duration or self._last_time
        for dst in destinations:
            self._audit(dst, when)
        return self

    # -- per-kind handlers -----------------------------------------------

    def _on_route(self, event):
        node = event.node
        dst = event.data.get("dst")
        self._route_dsts.add(dst)
        if node in self._crashed:
            # The fault layer discarded this node's state; a mutation
            # after the crash is itself a breach (the monitor records the
            # same) and must not contaminate the replayed tables.
            self._record(event.time, "dead_table_change",
                         "crashed node %r changed its table for %r"
                         % (node, dst))
            return
        table = self._tables.get(node)
        if table is not None:
            table.routes[dst] = (event.data.get("successor"),
                                 _comparable(event.data.get("metric")))
        self._ceiling[dst] = raise_ceiling(
            self._ceiling.get(dst), _comparable(event.data.get("dst_own")))
        self._audit(dst, event.time)

    def _on_fault(self, event):
        fault = event.data.get("fault")
        target = event.data.get("target")
        if fault == "crash" and target is not None:
            # State loss: the reboot (if any) installs a factory-fresh
            # table, so the crashed tables must not resurface.
            self._crashed.add(target)
            self._tables.pop(target, None)
        elif fault == "reboot" and target is not None:
            self._crashed.discard(target)
            if target not in self._tables:
                self._tables[target] = _Table()

    def _on_deliver(self, event):
        if event.node in self._crashed:
            self._record(event.time, "dead_delivery",
                         "packet delivered to crashed node %r" % event.node)

    def _on_tx(self, event):
        if event.node in self._crashed:
            self._record(event.time, "dead_transmit",
                         "crashed node %r transmitted" % event.node)

    def _on_violation(self, event):
        kind = event.data.get("violation")
        if kind in REPLAY_KINDS:
            self.recorded.append((event.time, kind))

    # -- checks (the engine the monitor runs online) ---------------------

    def _record(self, when, kind, detail):
        self.violations.append((when, kind, detail))

    def _audit(self, dst, when):
        """At most one loop/ordering breach, then ownership, for ``dst``."""
        breach = first_breach(self._tables, dst, self.check_ordering)
        if breach is not None:
            self._record(when, breach.kind, breach.detail)
        for detail in ownership_breaches(self._tables, dst,
                                         self._ceiling.get(dst)):
            self._record(when, "seqnum_ownership", detail)


def replay_events(header, events, destinations=None):
    """Replay an in-memory ``(header, events)`` pair."""
    checker = ReplayChecker(header)
    truncated = bool(header.get("truncated", False))
    for event in events:
        checker.feed(event)
    checker.finish(destinations=destinations)
    if truncated:
        verdict = "inconclusive"
    elif checker.violations:
        verdict = ("loop" if any(k == "loop"
                                 for _, k, _ in checker.violations)
                   else "flagged")
    else:
        verdict = "immune"
    return ReplayResult(
        verdict=verdict, violations=checker.violations,
        recorded=checker.recorded, truncated=truncated,
        events=checker.events, header=header,
    )


def replay_trace(path, destinations=None):
    """Replay the trace artifact at ``path`` (plain or gzip JSONL)."""
    stream = iter_trace(path)
    header = next(stream)
    result = replay_events(header, stream, destinations=destinations)
    result.path = str(path)
    return result
