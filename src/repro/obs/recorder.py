"""Event recording for running simulations.

A :class:`TraceRecorder` hooks into a built scenario (or a hand-wired
network) and records a structured event stream: transmissions, data
deliveries and drops, routing-table changes (with the ``(sn, fd, d)``
triplets LDR's NDC/FDC/SDC conditions gate on), fault-plan transitions,
and invariant-monitor violations.

    scenario = build_scenario(config.replaced(trace=True))
    scenario.run()
    for event in scenario.trace.select(kind="route", node=3):
        print(event)
    print(scenario.trace.summary())

Retention is bounded by ``max_events``: the recorder keeps the first
``max_events`` events (the head of the run), counts every event in
``recorded`` and sets ``truncated`` once one is dropped; the trace
header carries both, so offline replay refuses to certify the
incomplete stream.
"""

from collections import Counter

from repro.obs.events import TraceEvent


class TraceRecorder:
    """Collects :class:`TraceEvent` objects from a running simulation.

    Parameters
    ----------
    sim:
        The simulator; events are stamped with ``sim.now``.
    max_events:
        In-memory retention cap (None = unbounded): the first
        ``max_events`` events are kept and later ones ignored, and
        :attr:`truncated` becomes True the moment one is.
    """

    def __init__(self, sim, max_events=100_000):
        self.sim = sim
        self.max_events = max_events
        self.events = []
        self.truncated = False
        self.recorded = 0  # total events seen, dropped ones included
        # Live registries captured at install time; route events sample the
        # destination's own sequence label (``dst_own``) through these so
        # offline replay can audit seqnum ownership without a simulator.
        self._nodes = None
        self._protocols = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(self, scenario):
        """Attach to a Scenario (or any object with channel/nodes/protocols).

        Hooks chain rather than replace: an already-installed invariant
        monitor keeps receiving table-change notifications.
        When the scenario carries a fault injector and/or monitor, their
        transitions and violations are traced too, and protocol instances
        created by reboots are re-instrumented.
        """
        scenario.channel.observers.append(self._on_transmit)
        self._nodes = scenario.nodes
        self._protocols = scenario.protocols
        for node in scenario.nodes.values():
            self._wrap_deliver(node)
        for protocol in scenario.protocols.values():
            self._instrument_protocol(protocol)
        injector = getattr(scenario, "injector", None)
        if injector is not None:
            injector.fault_hook = self._on_fault
            injector.reboot_hook = self._on_protocol_replaced
        monitor = getattr(scenario, "monitor", None)
        if monitor is not None:
            monitor.violation_hook = self._on_violation
        return self

    def _instrument_protocol(self, protocol):
        self._chain_table_hook(protocol)
        self._wrap_drop(protocol)

    def _on_protocol_replaced(self, node_id, protocol):
        """A reboot installed a fresh protocol instance: re-instrument it.

        Called after the monitor re-claimed the table-change hook, so the
        chain order (recorder -> monitor) matches the initial install.
        """
        self._instrument_protocol(protocol)

    def _on_transmit(self, sender_id, frame, receiver_ids):
        packet = frame.packet
        self.record(
            "tx", sender_id,
            packet=packet.kind,
            dst="bcast" if frame.is_broadcast else frame.link_dst,
            receivers=len(receiver_ids),
        )

    def _wrap_deliver(self, node):
        original = node.deliver

        def traced(packet):
            self.record(
                "deliver", node.node_id,
                src=packet.src, dst=packet.dst,
                flow=packet.flow_id, seq=packet.seq, hops=packet.hops,
            )
            original(packet)

        node.deliver = traced

    def _wrap_drop(self, protocol):
        original = protocol.drop_data

        def traced(packet, reason):
            self.record(
                "drop", protocol.node_id,
                packet=packet.kind, reason=reason,
                src=getattr(packet, "src", None),
                dst=getattr(packet, "dst", None),
            )
            original(packet, reason)

        protocol.drop_data = traced

    def _chain_table_hook(self, protocol):
        previous = protocol.table_change_hook

        def traced(proto, dst):
            # A reboot may leave the pre-reboot instance with live timers;
            # its table is no longer routing state (the monitor ignores it
            # the same way), so its changes stay out of the trace — the
            # on-disk route stream is exactly what offline replay audits.
            stale = (
                self._protocols is not None
                and self._protocols.get(proto.node_id) is not proto
            )
            if not stale:
                self.record(
                    "route", proto.node_id,
                    dst=dst,
                    successor=proto.successor(dst),
                    metric=proto.route_metric(dst),
                    dst_own=self._own_label(dst),
                )
            if previous is not None:
                previous(proto, dst)

        protocol.table_change_hook = traced

    def _own_label(self, dst):
        """The destination's own sequence label right now, or None.

        None when the destination is crashed (no authoritative label
        exists — mirroring the online monitor, which skips the ownership
        ceiling for crashed destinations) or when the protocol keeps no
        ``own_seq``.  Sampled through the live registries so reboots —
        which install fresh protocol instances — are followed.
        """
        if self._protocols is None:
            return None
        if self._nodes is not None:
            node = self._nodes.get(dst)
            if node is not None and not getattr(node, "alive", True):
                return None
        return getattr(self._protocols.get(dst), "own_seq", None)

    def _on_fault(self, what, detail=None):
        data = dict(detail) if detail else {}
        data["what"] = what
        self.record("fault", None, **data)

    def _on_violation(self, kind, detail):
        self.record("violation", None, violation=kind, detail=detail)

    # ------------------------------------------------------------------
    # recording & querying
    # ------------------------------------------------------------------
    def record(self, kind, node, **data):
        """Record one event at the current simulation time."""
        event = TraceEvent(self.sim.now, kind, node, data)
        self.recorded += 1
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.truncated = True
            return event
        self.events.append(event)
        return event

    def select(self, kind=None, node=None, after=None, before=None, dst=None):
        """Filtered view of the retained event stream.

        Filters compose (logical AND).  ``dst`` matches the ``dst`` field
        of route/tx/deliver/drop events.
        """
        out = []
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if node is not None and event.node != node:
                continue
            if after is not None and event.time < after:
                continue
            if before is not None and event.time > before:
                continue
            if dst is not None and event.data.get("dst") != dst:
                continue
            out.append(event)
        return out

    def summary(self):
        """Event counts by kind (and drop reasons)."""
        kinds = Counter(e.kind for e in self.events)
        reasons = Counter(
            e.data["reason"] for e in self.events
            if e.kind == "drop" and "reason" in e.data
        )
        lines = ["trace: %d events%s" % (
            len(self.events),
            " (truncated, %d recorded)" % self.recorded
            if self.truncated else "",
        )]
        for kind, count in sorted(kinds.items()):
            lines.append("  {:<9} {}".format(kind, count))
        if reasons:
            lines.append("  drop reasons: " + ", ".join(
                "{}={}".format(r, c) for r, c in sorted(reasons.items())))
        return "\n".join(lines)

    def to_json(self, **filters):
        """The (filtered) event stream as a JSON string."""
        import json

        return json.dumps([e.to_doc() for e in self.select(**filters)])

    def format(self, limit=50, **filters):
        """Human-readable rendering of (filtered) events."""
        selected = self.select(**filters)
        lines = [repr(e) for e in selected[:limit]]
        if len(selected) > limit:
            lines.append("... %d more" % (len(selected) - limit))
        return "\n".join(lines)
