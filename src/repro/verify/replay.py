"""Offline conformance replay: audit invariants from a trace alone.

Third parties should not have to trust the simulator — a
``.trace.jsonl(.gz)`` artifact carries everything needed to re-check the
paper's claims with no simulator in the loop.  :func:`replay_trace`
rebuilds per-node routing tables from the ``route`` events'
``(successor, metric, dst_own)`` payloads and drives the very
:class:`~repro.faults.monitor.InvariantMonitor` that audits live runs,
event for event:

* ``route`` -> :meth:`~repro.faults.monitor.InvariantMonitor.
  on_table_change`: **loop** (Theorem 4), **ordering** (Theorem 2; only
  for LDR traces, mirroring the online wiring) and **seqnum_ownership**
  (the destination's label is the event's ``dst_own``), and
  **dead_table_change** for a crashed node;
* crash / reboot ``fault`` events -> ``on_crash`` / ``on_reboot`` (a
  reboot installs a fresh, empty table);
* ``deliver`` / ``tx`` -> ``on_deliver`` / ``on_transmit``, the
  **dead_delivery** / **dead_transmit** checks;
* end of trace -> ``check_all`` over the header's ``destinations``.

The replay is a *conformance* check: for every trace, the offline
verdict must agree with the monitor's recorded ``violation`` events —
:attr:`ReplayResult.agreement` is False on any divergence, and the test
suite treats that as a failure in its own right.  With one auditor, a
divergence means the trace does not carry the state the monitor saw:
agreement holds only for protocols whose ``successor()`` changes only
alongside a table-change notification: a successor that moved silently
could show the live monitor a loop that no ``route`` event records.

Truncated traces (header ``truncated`` flag — the recorder's retention
cap dropped events) are never certified: the verdict is
``"inconclusive"`` regardless of what the retained prefix shows, because
a loop in the dropped events would be invisible.  ``reconvergence``
violations are monitor-only (they need live physical-connectivity
queries) and are excluded from the agreement comparison.
"""

from repro.faults.monitor import InvariantMonitor
from repro.obs.reader import iter_trace
from repro.verify.counterexamples import verdict_from_breakdown

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

    def __init__(self, monitor, recorded, events, header, path=None):
        self.monitor = monitor
        self.violations = monitor.violations  # [(time, kind, detail)]
        self.recorded = recorded      # [(time, kind)] monitor-recorded
        self.truncated = bool(header.get("truncated", False))
        self.verdict = ("inconclusive" if self.truncated
                        else verdict_from_breakdown(monitor.summary()))
        self.events = events
        self.header = header
        self.path = path

    def breakdown(self):
        """Violation counts by kind."""
        return self.monitor.summary()

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


class _Clock:
    """The monitor's ``sim`` during a replay: ``now`` is the event's time."""

    now = 0.0


class _Table:
    """One node's routing table as rebuilt from its ``route`` events.

    ``own_seq`` is this node's own label as a destination: the
    ``dst_own`` of the latest ``route`` event toward it, which the
    monitor samples for the ownership ceiling exactly as it samples a
    live protocol's.
    """

    def __init__(self, node_id):
        self.node_id = node_id
        self.routes = {}  # dst -> (successor, comparable metric)
        self.own_seq = None

    def successor(self, dst):
        route = self.routes.get(dst)
        return None if route is None else route[0]

    def route_metric(self, dst):
        route = self.routes.get(dst)
        return None if route is None else route[1]


def replay_events(header, events, destinations=None):
    """Replay an in-memory ``(header, events)`` pair.

    Tables start empty for node ids ``0 .. num_nodes - 1`` (the
    monitor's walk order); route events of other nodes are ignored.
    ``destinations`` defaults to the header's ``destinations`` list (the
    traffic sinks the online sweep covered); for hand-built traces
    without one, every destination that ever appeared in a route event
    is swept instead.
    """
    config = header.get("config") or {}
    clock = _Clock()
    monitor = InvariantMonitor(
        clock,
        {node: _Table(node) for node in range(int(config.get("num_nodes", 0)))},
        check_ordering=config.get("protocol") == "ldr",
    )
    tables = monitor.protocols  # current instances; a reboot replaces one
    recorded = []
    route_dsts = set()
    count = 0
    for event in events:
        count += 1
        clock.now = event.time
        data = event.data
        if event.kind == "route":
            dst = data.get("dst")
            route_dsts.add(dst)
            table = tables.get(event.node)
            if table is None:
                continue
            # A crashed node's table is out of the walk and a reboot
            # replaces it, so this write cannot contaminate the audit;
            # the monitor records the change itself as dead_table_change.
            table.routes[dst] = (data.get("successor"),
                                 _comparable(data.get("metric")))
            owner = tables.get(dst)
            if owner is not None:
                owner.own_seq = _comparable(data.get("dst_own"))
            monitor.on_table_change(table, dst)
        elif event.kind == "fault":
            target = data.get("target")
            if target is None:
                continue
            if data.get("fault") == "crash":
                monitor.on_crash(target)
            elif data.get("fault") == "reboot":
                monitor.on_reboot(target, _Table(target))
        elif event.kind == "deliver":
            monitor.on_deliver(event.node, event)
        elif event.kind == "tx":
            monitor.on_transmit(event.node, event)
        elif event.kind == "violation":
            kind = data.get("violation")
            if kind in REPLAY_KINDS:
                recorded.append((event.time, kind))
    if destinations is None:
        destinations = header.get("destinations")
    if destinations is None:
        destinations = sorted(route_dsts)
    clock.now = float(config.get("duration", 0.0)) or clock.now
    monitor.check_all(destinations)
    return ReplayResult(monitor, recorded=recorded, events=count,
                        header=header)


def replay_trace(path, destinations=None):
    """Replay the trace artifact at ``path`` (plain or gzip JSONL)."""
    stream = iter_trace(path)
    header = next(stream)
    result = replay_events(header, stream, destinations=destinations)
    result.path = str(path)
    return result
