"""Routing-protocol infrastructure shared by all four protocols.

* :class:`~repro.routing.base.RoutingProtocol` — the API a protocol exposes
  to the node/MAC (send data, receive packet, link-failure feedback).
* :class:`~repro.routing.base.PacketBuffer` — per-destination buffering of
  data packets while route discovery runs.
* :mod:`repro.routing.seqnum` — LDR's (timestamp, counter) labels and
  AODV's circular 32-bit sequence-number comparison.
* :mod:`repro.routing.loopcheck` — the one instant-by-instant
  successor-graph audit (Theorem 4 loops, Theorem 2 ordering, seqnum
  ownership) behind the loop checker, the invariant monitor and the
  offline trace replay.
"""

from repro.routing.base import PacketBuffer, RoutingProtocol
from repro.routing.costs import DistanceCost, HopCost, TableCost
from repro.routing.loopcheck import LoopChecker, LoopError
from repro.routing.seqnum import LabeledSeq, circular_greater

__all__ = [
    "DistanceCost",
    "HopCost",
    "LabeledSeq",
    "LoopChecker",
    "LoopError",
    "PacketBuffer",
    "RoutingProtocol",
    "TableCost",
    "circular_greater",
]
