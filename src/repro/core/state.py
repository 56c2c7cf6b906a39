"""LDR per-node state: routing table entries and the RREQ cache (engagement
records + reverse paths).  An origin's route computations are
:class:`~repro.routing.base.Discovery` records."""

from repro.core.messages import INFINITY


class LdrRouteEntry:
    """Routing-table entry for one destination.

    The invariants (``seqno``, ``fd``) outlive route validity: when a route
    breaks or expires the entry is only *invalidated* — distance labels must
    persist for the current sequence number or NDC would lose its memory
    and loops could form.  Procedure 3 guarantees ``fd`` is non-increasing
    over time for a fixed sequence number, and ``fd <= dist`` always.
    """

    __slots__ = ("dst", "seqno", "dist", "fd", "next_hop", "expiry", "valid",
                 "alternates")

    def __init__(self, dst):
        self.dst = dst
        self.seqno = None
        self.dist = INFINITY
        self.fd = INFINITY
        self.next_hop = None
        self.expiry = 0.0
        self.valid = False
        # Multipath extension: neighbor -> (seqno, advertised distance)
        # for every advertisement that satisfied NDC.  Any of these is a
        # loop-free successor while its distance stays below fd.
        self.alternates = {}

    def is_active(self, now):
        """Active = valid and within its lifetime (paper's Section 1)."""
        return self.valid and now < self.expiry

    def remaining_lifetime(self, now):
        return max(0.0, self.expiry - now) if self.valid else 0.0

    def invalidate(self):
        """Mark broken; labels are retained (see class docstring)."""
        self.valid = False

    def __repr__(self):
        state = "active" if self.valid else "invalid"
        return "LdrRouteEntry(dst={}, sn={}, d={}, fd={}, nh={}, {})".format(
            self.dst, self.seqno, self.dist, self.fd, self.next_hop, state
        )


class RreqCacheEntry:
    """Engagement record for one computation ``(origin, rreqid)``.

    ``last_hop`` is the reverse-path pointer the RREP follows (Procedure 2:
    relay B caches ``{A, ID_A, C}``).  A node enters a computation at most
    once, so the flood's propagation graph is a tree (Theorem 3);
    ``forwarded_unicast`` separately bounds the reset-probe unicast to one
    forward per computation.
    """

    __slots__ = ("origin", "rreqid", "last_hop", "created_at", "expiry",
                 "replied_sn", "replied_dist", "forwarded_unicast")

    def __init__(self, origin, rreqid, last_hop, now, timeout):
        self.origin = origin
        self.rreqid = rreqid
        self.last_hop = last_hop
        self.created_at = now
        self.expiry = now + timeout
        # Strongest advertisement forwarded so far for this computation
        # (None until the first RREP passes through).
        self.replied_sn = None
        self.replied_dist = None
        self.forwarded_unicast = False

    def stronger_than_forwarded(self, sn, dist):
        """Multiple-RREPs rule: only strictly stronger replies cross."""
        if self.replied_sn is None:
            return True
        if sn is None:
            return False
        if self.replied_sn is None or sn > self.replied_sn:
            return True
        return sn == self.replied_sn and dist < self.replied_dist

    def record_forwarded(self, sn, dist):
        self.replied_sn = sn
        self.replied_dist = dist
