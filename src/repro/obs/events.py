"""The trace event model and its serialization contract.

A trace is a sequence of :class:`TraceEvent` records — the pcap+route-log
a real deployment would produce.  Serialized traces are JSON Lines: one
schema-versioned header object followed by one object per event.  The
serialization is **canonical** (sorted keys, compact separators, no
wall-clock or process-identity fields), so a trace is a pure function of
``(config, seed, fault_plan)`` and two runs of the same trial produce
byte-identical files — the property the CI trace-smoke gate enforces.
"""

import json

from repro.routing.seqnum import LabeledSeq

#: Trace format version, embedded in every file's header line.  Bump when
#: event fields change meaning or shape; readers reject unknown majors.
#: 2: route events carry ``dst_own`` (the destination's own sequence label
#:    at change time — what offline seqnum-ownership replay audits
#:    against), fault events carry structured detail (``fault``/``target``/
#:    ``pairs``) beside the human string, and headers carry the recorder's
#:    ``truncated``/``recorded`` retention outcome so replay can refuse to
#:    certify an incomplete stream.
SCHEMA_VERSION = 2

#: Event kinds a recorder may emit, in documentation order.
EVENT_KINDS = (
    "tx",         # a frame hit the air
    "deliver",    # data reached its destination application
    "drop",       # data discarded, with reason
    "route",      # a routing-table change for some destination
    "fault",      # a fault-plan transition executed by the injector
    "violation",  # the invariant monitor recorded a breach
)


def jsonable(value):
    """``value`` reduced to deterministic JSON-able data.

    Sequence labels become ``[timestamp, counter]`` pairs; tuples/lists
    recurse; anything exotic falls back to ``repr`` (which protocol code
    keeps free of memory addresses — lint rule RL004).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, LabeledSeq):
        return [value.timestamp, value.counter]
    if isinstance(value, (tuple, list)):
        return [jsonable(item) for item in value]
    return repr(value)


class TraceEvent:
    """One recorded event: a time, a kind, a node, and structured data."""

    __slots__ = ("time", "kind", "node", "data")

    def __init__(self, time, kind, node, data=None):
        self.time = time
        self.kind = kind
        self.node = node
        self.data = data or {}

    @property
    def detail(self):
        """Human-readable ``key=value`` rendering of :attr:`data`."""
        return " ".join(
            "%s=%s" % (key, self.data[key]) for key in sorted(self.data)
        )

    def to_doc(self):
        """The event as a plain dict (the JSONL line payload)."""
        return {
            "t": self.time,
            "kind": self.kind,
            "node": self.node,
            "data": {key: jsonable(value) for key, value in self.data.items()},
        }

    @classmethod
    def from_doc(cls, doc):
        return cls(doc["t"], doc["kind"], doc["node"], dict(doc.get("data", {})))

    def canonical(self):
        """The canonical serialized line (no trailing newline).

        Canonical form is what determinism tests compare and what
        ``repro trace diff`` uses to decide two events differ.
        """
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))

    def __eq__(self, other):
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        # Fault and violation events belong to no node.
        node = "-" if self.node is None else self.node
        return "[{:10.6f}] {:<9} node={:<4} {}".format(
            self.time, self.kind, node, self.detail
        )


def first_divergence(side_a, side_b):
    """Where two event lists first differ, or None when they are equal.

    Returns ``(index, event_a, event_b)``, comparing canonical forms;
    either event is None when its side ran out first.  ``repro trace
    diff`` and the verify grid's LDR-vs-AODV column both ask this.
    """
    for index, (a, b) in enumerate(zip(side_a, side_b)):
        if a.canonical() != b.canonical():
            return index, a, b
    if len(side_a) == len(side_b):
        return None
    index = min(len(side_a), len(side_b))
    return (index,
            side_a[index] if index < len(side_a) else None,
            side_b[index] if index < len(side_b) else None)
