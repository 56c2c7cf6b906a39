"""Always-on invariant monitor for (possibly faulted) simulations.

Runs the :mod:`repro.routing.loopcheck` engine over the live (non-crashed)
protocols on every table change, and adds the fault-aware checks the
paper's claims are actually about:

* **loop / ordering** — Theorem 4 (instantaneous loop freedom) and the
  Theorem 2 ordering criterion, *recorded* instead of raised, so a
  campaign surfaces violation counts in its metric rows rather than
  dying mid-grid;
* **seqnum_ownership** — no node ever holds a route whose sequence label
  is fresher than anything the destination itself has issued (Section 2.2:
  "firm control stays with the owner"), tracked across reboots so a
  rebooted destination that fails to outrun its stale labels is caught;
  the monitor samples the destination's label, the engine compares;
* **dead_delivery / dead_transmit / dead_table_change** — crashed nodes
  neither receive application packets, put frames on the air, nor
  change their tables;
* **reconvergence** — after a heal event, routes for active traffic
  demands must be re-established within ``reconvergence_bound`` seconds
  (only flagged when the protocol has also *given up* — no route and no
  discovery in flight — for a physically connected pair).

Violations accumulate in :attr:`InvariantMonitor.violations` and are
counted into the metrics collector (``invariant_violations`` per kind),
which is how they reach :class:`~repro.metrics.report.RunReport` rows and
campaign tables.  ``strict=True`` additionally raises, for tests that
want the offending update pinpointed.
"""

from repro.routing.loopcheck import (
    first_breach,
    ownership_breaches,
    raise_ceiling,
    reaches,
)


class InvariantViolation(AssertionError):
    """Raised in strict mode when any monitored invariant breaks."""


class InvariantMonitor:
    """Audits routing state and fault-layer discipline during a run.

    Parameters
    ----------
    sim:
        The simulator (re-convergence deadlines are scheduled on it).
    protocols:
        Mapping node id -> routing protocol; kept current across reboots
        via :meth:`on_reboot`.
    nodes:
        Optional mapping node id -> :class:`~repro.net.node.Node`; enables
        the dead-delivery check.
    channel:
        Optional :class:`~repro.net.channel.WirelessChannel`; enables the
        dead-transmit check and physical-connectivity tests.
    metrics:
        Optional :class:`~repro.metrics.collector.MetricsCollector`;
        violations are counted into it per kind.
    check_ordering:
        Enforce the LDR ordering criterion on protocols exposing
        ``route_metric`` (disable for protocols without those notions).
    strict:
        Re-raise each violation as :class:`InvariantViolation`.
    reconvergence_bound:
        Seconds after a heal before the re-convergence check runs, or
        None to disable it.
    demand_fn:
        Zero-argument callable returning the active ``(src, dst)`` traffic
        pairs; required for the re-convergence check to test anything.
    """

    def __init__(self, sim, protocols, nodes=None, channel=None,
                 metrics=None, check_ordering=True, strict=False,
                 reconvergence_bound=None, demand_fn=None):
        self.sim = sim
        self.protocols = dict(protocols)
        self.nodes = dict(nodes) if nodes is not None else None
        self.channel = channel
        self.metrics = metrics
        self.strict = strict
        self.reconvergence_bound = reconvergence_bound
        self.demand_fn = demand_fn
        self.check_ordering = check_ordering
        # The audited tables, in walk order: a crash removes the node, a
        # reboot re-appends its fresh instance.
        self._live = dict(self.protocols)
        self.violations = []  # (sim-time, kind, detail)
        # Observability seam (repro.obs): fn(kind, detail) per violation,
        # called before strict-mode raises so traces keep the breach.
        self.violation_hook = None
        self.checks_run = 0
        self._crashed = set()
        self._max_issued = {}  # dst -> freshest label the destination issued

    # -- wiring ----------------------------------------------------------

    def install(self):
        """Attach to every protocol / node / channel hook; returns self."""
        for protocol in self.protocols.values():
            protocol.table_change_hook = self.on_table_change
        if self.nodes is not None:
            for node in self.nodes.values():
                node.deliver_hook = self._on_deliver
        if self.channel is not None:
            self.channel.observers.append(self._on_transmit)
        return self

    def on_crash(self, node_id):
        """The fault layer crashed ``node_id``: drop it from the audits."""
        self._crashed.add(node_id)
        self._live.pop(node_id, None)

    def on_reboot(self, node_id, protocol):
        """``node_id`` is back with a fresh ``protocol`` instance."""
        self._crashed.discard(node_id)
        self.protocols[node_id] = protocol
        self._live[node_id] = protocol
        protocol.table_change_hook = self.on_table_change
        # Deliberately NOT resetting _max_issued[node_id]: the ownership
        # ceiling spans incarnations.  A correct reboot outruns the old
        # ceiling (fresh boot-time timestamp); one that does not would
        # let stale routes masquerade as fresh, which is the bug AODV's
        # reboot-hold procedure exists to paper over.

    def on_heal(self):
        """A partition/blackout healed; start the re-convergence clock."""
        if self.reconvergence_bound is None:
            return
        self.sim.schedule(self.reconvergence_bound, self._check_reconvergence)

    # -- recording -------------------------------------------------------

    def _record(self, kind, detail):
        self.violations.append((self.sim.now, kind, detail))
        if self.metrics is not None:
            self.metrics.on_invariant_violation(kind)
        if self.violation_hook is not None:
            self.violation_hook(kind, detail)
        if self.strict:
            raise InvariantViolation(
                "[t=%g] %s: %s" % (self.sim.now, kind, detail))

    def summary(self):
        """Violation counts by kind."""
        counts = {}
        for _, kind, _ in self.violations:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    # -- checks ----------------------------------------------------------

    def on_table_change(self, protocol, dst):
        node_id = protocol.node_id
        if node_id in self._crashed:
            # A discarded instance mutated its table after the crash —
            # itself a fault-layer bug worth surfacing.
            self._record("dead_table_change",
                         "crashed node %r changed its table for %r"
                         % (node_id, dst))
            return
        if protocol is not self.protocols.get(node_id):
            return  # stale pre-reboot instance; its state is gone
        self.checks_run += 1
        self._audit(dst)

    def check_all(self, destinations):
        """Audit every destination (end-of-run sweep)."""
        for dst in destinations:
            self._audit(dst)

    def _audit(self, dst):
        """Loop/ordering, then seqnum ownership, for one destination."""
        breach = first_breach(self._live, dst, self.check_ordering)
        if breach is not None:
            self._record(breach.kind, breach.detail)
        dest = self.protocols.get(dst)
        if dest is not None and dst not in self._crashed:
            self._max_issued[dst] = raise_ceiling(
                self._max_issued.get(dst), getattr(dest, "own_seq", None))
        for detail in ownership_breaches(self._live, dst,
                                         self._max_issued.get(dst)):
            self._record("seqnum_ownership", detail)

    def _on_deliver(self, node, packet):
        if not node.alive or node.node_id in self._crashed:
            self._record("dead_delivery",
                         "packet %r delivered to crashed node %r"
                         % (packet, node.node_id))

    def _on_transmit(self, sender_id, frame, receiver_ids):
        if sender_id in self._crashed:
            self._record("dead_transmit",
                         "crashed node %r transmitted %r"
                         % (sender_id, frame))

    def _check_reconvergence(self):
        demands = list(self.demand_fn()) if self.demand_fn is not None else []
        seen = set()
        for src, dst in demands:
            if src == dst or (src, dst) in seen:
                continue
            seen.add((src, dst))
            if src in self._crashed or dst in self._crashed:
                continue
            if not self._physically_connected(src, dst):
                continue
            if reaches(self._live, src, dst):
                continue
            if self._discovery_in_flight(src, dst):
                continue  # still trying: not converged, but not given up
            self._record(
                "reconvergence",
                "no route %r -> %r within %gs of heal despite physical "
                "connectivity" % (src, dst, self.reconvergence_bound))

    def _physically_connected(self, src, dst):
        if self.channel is None:
            return False
        frontier = [src]
        visited = {src}
        while frontier:
            current = frontier.pop()
            for neighbor in self.channel.neighbors_of(current):
                if neighbor == dst:
                    return True
                if neighbor not in visited and neighbor not in self._crashed:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        return False

    def _discovery_in_flight(self, src, dst):
        protocol = self.protocols.get(src)
        if protocol is None:
            return False
        for attr in ("computations", "_discoveries"):
            pending = getattr(protocol, attr, None)
            if pending is not None and dst in pending:
                return True
        return False
