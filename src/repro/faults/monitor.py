"""The invariant monitor: the one auditor of the paper's safety claims.

Runs the :mod:`repro.routing.loopcheck` engine over the live (non-crashed)
routing tables on every table change, and adds the fault-aware checks the
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

The same monitor audits a live run (:meth:`InvariantMonitor.install`
hooks it into the protocols, nodes and channel) and a replayed trace
(:mod:`repro.verify.replay` calls the ``on_*`` entry points from the
trace's events and ``check_all`` at its end).  Violations accumulate in
:attr:`InvariantMonitor.violations` and are counted into the metrics
collector (``invariant_violations`` per kind), which is how they reach
:class:`~repro.metrics.report.RunReport` rows and campaign tables.
``strict=True`` additionally raises at the first violation, for tests
and ``repro audit``, which want the offending update pinpointed.

**Audit cost.**  An audit after a table change does not re-walk every
chain when it need not.  Once a full sweep of a destination comes out
clean (and its ownership ceiling is known), the monitor keeps that
destination's :class:`~repro.routing.loopcheck.CleanAudit`, and the
next change at node ``v`` re-walks ``v``'s chain, re-checks the hops
out of and into ``v`` and ``v``'s own label, and nothing else.  That is
exact because of the hook contract (DESIGN.md §6): a table change
notifies after every mutation, so between two audits of a destination
only the notifying node's successor or metric toward it can have
changed.  Any finding sends the audit back to the full sweep, which
reports exactly what it always has; so do ``check_all``, the first
audit of each destination, and every audit after a crash or reboot
(each drops all kept records, since it changes which tables are
walked).  Protocols that fire no hook (DSR, the oracle) are audited
only by ``check_all``'s sweep, as before.
"""

from repro.routing.loopcheck import (
    CleanAudit,
    first_breach,
    ownership_breaches,
    raise_ceiling,
    reaches,
)


class InvariantViolation(AssertionError):
    """Raised in strict mode when any monitored invariant breaks."""


class InvariantMonitor:
    """Audits routing state and fault-layer discipline, live or replayed.

    Parameters
    ----------
    sim:
        The simulator: violations are stamped with ``sim.now`` and
        re-convergence deadlines are scheduled on it.
    protocols:
        Mapping node id -> routing protocol; kept current across reboots
        via :meth:`on_reboot`.
    nodes:
        Optional mapping node id -> :class:`~repro.net.node.Node`;
        :meth:`install` hooks :meth:`on_deliver` (the dead-delivery
        check) into each.
    channel:
        Optional :class:`~repro.net.channel.WirelessChannel`;
        :meth:`install` adds :meth:`on_transmit` (the dead-transmit
        check) to its observers, and re-convergence asks it for
        physical connectivity.
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
        self.checks_run = 0  # audits: table changes plus swept destinations
        self._crashed = set()
        self._max_issued = {}  # dst -> freshest label the destination issued
        self._clean = {}  # dst -> CleanAudit of its last audit, if clean

    # -- wiring ----------------------------------------------------------

    def install(self):
        """Attach to every protocol / node / channel hook; returns self."""
        for protocol in self.protocols.values():
            protocol.table_change_hook = self.on_table_change
        if self.nodes is not None:
            for node in self.nodes.values():
                node.deliver_hook = self.on_deliver
        if self.channel is not None:
            self.channel.observers.append(self.on_transmit)
        return self

    def on_crash(self, node_id):
        """The fault layer crashed ``node_id``: drop it from the audits."""
        self._crashed.add(node_id)
        self._live.pop(node_id, None)
        self._clean.clear()

    def on_reboot(self, node_id, protocol):
        """``node_id`` is back with a fresh ``protocol`` instance."""
        self._crashed.discard(node_id)
        self.protocols[node_id] = protocol
        self._live[node_id] = protocol
        self._clean.clear()
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
        self._audit(dst, node_id)

    def check_all(self, destinations):
        """Audit every destination (end-of-run sweep)."""
        for dst in destinations:
            self._audit(dst)

    def _audit(self, dst, changed=None):
        """Loop/ordering, then seqnum ownership, for one destination.

        ``changed`` is the node whose table change prompted the audit;
        with a clean record of the last audit, only it is re-checked.
        """
        self.checks_run += 1
        clean = self._clean.pop(dst, None)
        if clean is not None and changed is not None:
            ceiling = self._ceiling(dst)
            if clean.recheck(self._live, changed, ceiling):
                self._max_issued[dst] = ceiling
                self._clean[dst] = clean
                return
        breach = first_breach(self._live, dst, self.check_ordering)
        if breach is not None:
            self._record(breach.kind, breach.detail)
        ceiling = self._max_issued[dst] = self._ceiling(dst)
        forged = ownership_breaches(self._live, dst, ceiling)
        for detail in forged:
            self._record("seqnum_ownership", detail)
        if breach is None and not forged and ceiling is not None:
            self._clean[dst] = CleanAudit(self._live, dst,
                                          self.check_ordering)

    def _ceiling(self, dst):
        """``dst``'s ownership ceiling, raised by its label if it is up."""
        ceiling = self._max_issued.get(dst)
        dest = self.protocols.get(dst)
        if dest is not None and dst not in self._crashed:
            ceiling = raise_ceiling(ceiling, getattr(dest, "own_seq", None))
        return ceiling

    def on_deliver(self, node_id, packet):
        """``node_id`` handed ``packet`` to its application."""
        if node_id in self._crashed:
            self._record("dead_delivery",
                         "packet %r delivered to crashed node %r"
                         % (packet, node_id))

    def on_transmit(self, sender_id, frame, receiver_ids=()):
        """``sender_id`` put ``frame`` on the air (a channel observer)."""
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
        return dst in getattr(protocol, "discoveries", ())
