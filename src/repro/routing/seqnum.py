"""Sequence-number machinery.

LDR (Section 3): "LDR uses a sequence number consisting of a
destination-specific time stamp taken from a node's real-time clock and an
unsigned monotonically increasing counter.  When the counter reaches its
maximum value, the node places a new time stamp in its sequence number and
resets the counter to zero."  :class:`LabeledSeq` implements exactly that;
the pair compares lexicographically, so it is monotone across counter
wrap and across reboots without synchronized clocks and without AODV's
reboot-hold procedure.

AODV uses a single unsigned 32-bit counter compared with signed rollover
arithmetic (RFC 3561 §6.1); :func:`circular_greater` implements that.
"""

#: Counter width for LabeledSeq; small enough that wrap is exercised in
#: tests, large enough that production-style use never wraps mid-run.
COUNTER_MAX = 2 ** 16 - 1


class LabeledSeq:
    """LDR's (timestamp, counter) destination sequence label.

    Immutable; :meth:`incremented` returns a new label.  Only a destination
    increments its own label — a protocol invariant, not enforced here.
    Labels order as ``(timestamp, counter)`` tuples would; each operator
    compares the two fields directly, since the audits compare labels on
    every hop they check.  Any other operand type gets ``NotImplemented``,
    so an ordering against it raises ``TypeError``.
    """

    __slots__ = ("timestamp", "counter")

    def __init__(self, timestamp=0.0, counter=0):
        self.timestamp = timestamp
        self.counter = counter

    def incremented(self, now):
        """The next label; wraps the counter by taking a fresh timestamp."""
        if self.counter >= COUNTER_MAX:
            return LabeledSeq(timestamp=now, counter=0)
        return LabeledSeq(timestamp=self.timestamp, counter=self.counter + 1)

    def __eq__(self, other):
        return (isinstance(other, LabeledSeq)
                and self.timestamp == other.timestamp
                and self.counter == other.counter)

    def __lt__(self, other):
        if not isinstance(other, LabeledSeq):
            return NotImplemented
        return (self.timestamp < other.timestamp
                or (self.timestamp == other.timestamp
                    and self.counter < other.counter))

    def __le__(self, other):
        if not isinstance(other, LabeledSeq):
            return NotImplemented
        return (self.timestamp < other.timestamp
                or (self.timestamp == other.timestamp
                    and self.counter <= other.counter))

    def __gt__(self, other):
        if not isinstance(other, LabeledSeq):
            return NotImplemented
        return (self.timestamp > other.timestamp
                or (self.timestamp == other.timestamp
                    and self.counter > other.counter))

    def __ge__(self, other):
        if not isinstance(other, LabeledSeq):
            return NotImplemented
        return (self.timestamp > other.timestamp
                or (self.timestamp == other.timestamp
                    and self.counter >= other.counter))

    def __hash__(self):
        return hash((self.timestamp, self.counter))

    def __repr__(self):
        return "LabeledSeq(ts={}, n={})".format(self.timestamp, self.counter)


_HALF = 2 ** 31
_MOD = 2 ** 32


def circular_greater(a, b):
    """AODV-style comparison: is sequence number ``a`` fresher than ``b``?

    Treats the 32-bit difference as signed, so freshness survives counter
    rollover (e.g. ``circular_greater(1, 2**32 - 1)`` is True).
    """
    diff = (a - b) % _MOD
    return 0 < diff < _HALF


def circular_geq(a, b):
    """``a`` at least as fresh as ``b`` under rollover arithmetic."""
    return a == b or circular_greater(a, b)
