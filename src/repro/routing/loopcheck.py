"""Instant-by-instant loop audit of the successor graph.

The paper's Theorem 4 claims LDR is loop-free *at every instant*.  This
module is the one implementation of that audit, and of the checks that
ride along with it:

* :func:`first_breach` walks every node's successor chain toward one
  destination and returns the first routing loop — or, when asked, the
  first breach of the paper's *ordering criterion* (Theorem 2): along a
  successor path the sequence number is non-decreasing toward the
  destination, and for equal sequence numbers the feasible distance
  strictly decreases;
* :func:`ownership_breaches` lists the nodes holding a sequence label
  fresher than the destination ever issued (Section 2.2);
* :func:`reaches` answers whether a chain actually arrives.

Each takes ``tables``, a mapping from node id to an object with
``successor(dst)`` and ``route_metric(dst)`` (a routing protocol, or a
table rebuilt from a trace), walked in the mapping's iteration order; a
node absent from the mapping (crashed, or unknown) ends a walk.  Every
violation detail string is formatted here.  Three consumers share the
engine: :class:`LoopChecker` (raises on the first breach), the
fault-aware :class:`~repro.faults.monitor.InvariantMonitor` (records it)
and the offline :class:`~repro.verify.replay.ReplayChecker` (re-derives it
from a trace), so the online and offline verdicts cannot drift apart.
"""

from collections import namedtuple

#: One loop/ordering breach: ``kind`` (``"loop"`` or ``"ordering"``), the
#: human-readable ``detail``, and the ``edge`` ``(node, node, dst)`` where
#: it was found — the walk's start and the revisited node for a loop, the
#: offending upstream/downstream hop for an ordering breach.
Breach = namedtuple("Breach", "kind detail edge")


class LoopError(AssertionError):
    """Routing tables formed a loop (or violated the ordering criterion).

    ``kind`` is ``"loop"`` for a successor-graph cycle and ``"ordering"``
    for a Theorem-2 breach.
    """

    def __init__(self, message, kind="loop"):
        super().__init__(message)
        self.kind = kind


def first_breach(tables, dst, check_ordering=True):
    """The first loop or ordering breach toward ``dst``, or None.

    Chains are walked from every node in ``tables`` order and the audit
    stops at the first breach, so one call reports at most one.
    ``check_ordering`` adds the Theorem-2 comparison on every hop whose
    two ends expose a metric (the hop into ``dst`` itself is exempt).
    """
    for start in tables:
        breach = _walk(tables, start, dst, check_ordering)
        if breach is not None:
            return breach
    return None


def _walk(tables, start, dst, check_ordering):
    seen = []
    seen_set = set()
    current = start
    while current is not None and current != dst:
        if current in seen_set:
            loop = seen[seen.index(current):] + [current]
            return Breach(
                "loop",
                "routing loop for destination {}: {}".format(dst, loop),
                (start, current, dst),
            )
        seen.append(current)
        seen_set.add(current)
        table = tables.get(current)
        if table is None:
            break
        nxt = table.successor(dst)
        if nxt is not None and check_ordering:
            breach = _ordering_breach(tables, current, table, nxt, dst)
            if breach is not None:
                return breach
        current = nxt
    return None


def _ordering_breach(tables, up_id, upstream, down_id, dst):
    """Theorem 2 on one hop: sn non-decreasing, fd strictly decreasing."""
    if down_id == dst:
        return None
    downstream = tables.get(down_id)
    if downstream is None:
        return None
    up = upstream.route_metric(dst)
    down = downstream.route_metric(dst)
    if up is None or down is None:
        return None
    up_sn, up_fd, _ = up
    down_sn, down_fd, _ = down
    if down_sn < up_sn:
        # The successor has an *older* number than we credited it with;
        # with LDR semantics this cannot happen for the stored route,
        # but a successor may legitimately have advanced past us, so
        # only the equal-number case constrains feasible distances.
        return Breach(
            "ordering",
            "ordering violated toward {}: {}(sn={}) uses {}(sn={})".format(
                dst, up_id, up_sn, down_id, down_sn),
            (up_id, down_id, dst),
        )
    if down_sn == up_sn and not (down_fd < up_fd):
        return Breach(
            "ordering",
            "feasible-distance ordering violated toward {}: "
            "{} (fd={}) -> {} (fd={})".format(
                dst, up_id, up_fd, down_id, down_fd),
            (up_id, down_id, dst),
        )
    return None


def raise_ceiling(ceiling, own):
    """The ownership ceiling once the destination was seen holding ``own``.

    The ceiling only rises: a later, lower sample (or ``None``, no label
    known) leaves it where it was.
    """
    if own is not None and (ceiling is None or own > ceiling):
        return own
    return ceiling


def ownership_breaches(tables, dst, ceiling):
    """Detail strings, one per node holding a label for ``dst`` above
    ``ceiling`` (the freshest label the destination ever issued).

    Labels that do not compare with the ceiling (different protocols'
    label types) are skipped; a ``None`` ceiling checks nothing.
    """
    if ceiling is None:
        return []
    details = []
    for node_id, table in tables.items():
        if node_id == dst:
            continue
        metric = table.route_metric(dst)
        if metric is None or metric[0] is None:
            continue
        try:
            forged = metric[0] > ceiling
        except TypeError:
            continue
        if forged:
            details.append(
                "node %r holds sn=%r for %r but the destination only "
                "ever issued up to %r" % (node_id, metric[0], dst, ceiling))
    return details


def reaches(tables, src, dst):
    """Does the successor chain from ``src`` actually arrive at ``dst``?"""
    current = src
    visited = set()
    while current is not None and current != dst:
        if current in visited:
            return False
        visited.add(current)
        table = tables.get(current)
        if table is None:
            return False
        current = table.successor(dst)
    return current == dst


class LoopChecker:
    """Audits the union of all nodes' routing tables, raising on a breach.

    ``protocols`` is an iterable of RoutingProtocol instances (one per
    node).  Call :meth:`install` once; the checker then runs on every table
    change.  ``check_ordering`` additionally enforces the LDR invariant on
    protocols that expose :meth:`route_metric`.
    """

    def __init__(self, protocols, check_ordering=True):
        self.protocols = {p.node_id: p for p in protocols}
        self.check_ordering = check_ordering
        self.checks_run = 0
        self.violations = []  # breach edges, recorded before raising

    def install(self):
        for protocol in self.protocols.values():
            protocol.table_change_hook = self.on_table_change
        return self

    def on_table_change(self, protocol, dst):
        self.check_destination(dst)

    def check_destination(self, dst):
        """Walk every node's successor chain toward ``dst``."""
        self.checks_run += 1
        breach = first_breach(self.protocols, dst, self.check_ordering)
        if breach is not None:
            # Record before raising so callers that absorb the error (the
            # audit CLI) still see it.
            self.violations.append(breach.edge)
            raise LoopError(breach.detail, kind=breach.kind)

    def check_all(self, destinations):
        for dst in destinations:
            self.check_destination(dst)
