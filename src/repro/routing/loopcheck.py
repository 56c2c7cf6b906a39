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
* :func:`reaches` answers whether a chain actually arrives;
* :class:`CleanAudit` is what a clean audit leaves behind: it decides
  whether a change at one node can have broken it (see below).

Each takes ``tables``, a mapping from node id to an object with
``successor(dst)`` and ``route_metric(dst)`` (a routing protocol, or a
table rebuilt from a trace), walked in the mapping's iteration order; a
node absent from the mapping (crashed, or unknown) ends a walk.  Every
violation detail string is formatted here.  One auditor runs the engine:
the :class:`~repro.faults.monitor.InvariantMonitor`, over live protocols
during a run and over tables rebuilt from a trace in the offline replay
(:mod:`repro.verify.replay`), so the online and offline verdicts cannot
drift apart.

**Incremental re-checks.**  The full sweep walks every node's chain.
After a sweep of ``dst`` finds nothing, a :class:`CleanAudit` answers
the next audit from the one node that changed, provided the caller
keeps the hook contract (DESIGN.md §6): between two audits of ``dst``,
only the notifying node's ``successor(dst)`` or ``route_metric(dst)``
changed, and no table joined or left ``tables``.  Its
:meth:`~CleanAudit.recheck` only says "still clean" or "sweep again";
the sweep then reports what it finds exactly as before, so every
verdict keeps one implementation.
"""

from collections import namedtuple

#: One loop/ordering breach: ``kind`` (``"loop"`` or ``"ordering"``) and
#: the human-readable ``detail``.
Breach = namedtuple("Breach", "kind detail")


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


def _misordered(tables, upstream, down_id, dst):
    """The hop's two metrics if it breaks Theorem 2, else None.

    Theorem 2 on one hop: sn non-decreasing, fd strictly decreasing.
    """
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
    if down_sn < up_sn or (down_sn == up_sn and not (down_fd < up_fd)):
        return up, down
    return None


def _ordering_breach(tables, up_id, upstream, down_id, dst):
    hop = _misordered(tables, upstream, down_id, dst)
    if hop is None:
        return None
    (up_sn, up_fd, _), (down_sn, down_fd, _) = hop
    if down_sn < up_sn:
        # The successor has an *older* number than we credited it with;
        # with LDR semantics this cannot happen for the stored route,
        # but a successor may legitimately have advanced past us, so
        # only the equal-number case constrains feasible distances.
        return Breach(
            "ordering",
            "ordering violated toward {}: {}(sn={}) uses {}(sn={})".format(
                dst, up_id, up_sn, down_id, down_sn),
        )
    return Breach(
        "ordering",
        "feasible-distance ordering violated toward {}: "
        "{} (fd={}) -> {} (fd={})".format(
            dst, up_id, up_fd, down_id, down_fd),
    )


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
        label = _forged_label(table, dst, ceiling)
        if label is not None:
            details.append(
                "node %r holds sn=%r for %r but the destination only "
                "ever issued up to %r" % (node_id, label, dst, ceiling))
    return details


def _forged_label(table, dst, ceiling):
    """The label ``table`` holds for ``dst`` if it is above ``ceiling``."""
    metric = table.route_metric(dst)
    if metric is None or metric[0] is None:
        return None
    try:
        forged = metric[0] > ceiling
    except TypeError:
        return None
    return metric[0] if forged else None


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


class CleanAudit:
    """The successor graph toward ``dst`` as a clean full audit left it.

    Build one right after :func:`first_breach` and
    :func:`ownership_breaches` found nothing toward ``dst`` over
    ``tables`` under a known (not None) ceiling: with no ceiling, no
    label was checked.  Each node that has a successor is recorded with
    it, and each successor with the nodes pointing at it, but only when
    ``check_ordering`` is set: the hops into a changed node are then the
    only ones whose ordering can have changed besides its own.  Without
    ordering checks, nothing needs keeping.
    """

    __slots__ = ("dst", "check_ordering", "succ", "into")

    def __init__(self, tables, dst, check_ordering=True):
        self.dst = dst
        self.check_ordering = check_ordering
        self.succ = {}  # node -> its successor, for nodes that have one
        self.into = {}  # successor -> the nodes whose successor it is
        if check_ordering:
            for node, table in tables.items():
                if node != dst:
                    self._point(node, table.successor(dst))

    def recheck(self, tables, node, ceiling):
        """Is the audit still clean after a change at ``node`` alone?

        ``ceiling`` is the ownership ceiling now; it may have risen
        since the last audit but not fallen.  With nothing else changed,
        a new loop passes through ``node``, so walking its chain finds
        it; a newly misordered hop leaves ``node`` or enters it; and
        only ``node`` can newly hold a label above the ceiling.  True
        means the full audit would find nothing, and the record moves
        on to the new graph.  False means it may find something: the
        caller must run it, and drop this record.
        """
        dst = self.dst
        if node == dst:
            return True  # walks stop at dst; its own entry is never read
        table = tables[node]
        nxt = table.successor(dst)
        seen = {node}
        current = nxt
        while current is not None and current != dst:
            if current in seen:
                return False
            seen.add(current)
            ahead = tables.get(current)
            if ahead is None:
                break
            current = ahead.successor(dst)
        if _forged_label(table, dst, ceiling) is not None:
            return False
        if self.check_ordering:
            if (nxt is not None
                    and _misordered(tables, table, nxt, dst) is not None):
                return False
            for up_id in self.into.get(node, ()):
                if _misordered(tables, tables[up_id], node, dst) is not None:
                    return False
            self._point(node, nxt)
        return True

    def _point(self, node, nxt):
        """Record ``nxt`` (None: no route) as ``node``'s successor."""
        old = self.succ.get(node)
        if old == nxt:
            return
        if old is not None:
            pointing = self.into[old]
            pointing.discard(node)
            if not pointing:
                del self.into[old]
        if nxt is None:
            del self.succ[node]
        else:
            self.succ[node] = nxt
            self.into.setdefault(nxt, set()).add(node)
