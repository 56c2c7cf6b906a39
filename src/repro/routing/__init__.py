"""Routing-protocol infrastructure shared by every registered protocol.

* :class:`~repro.routing.base.RoutingProtocol` — the API a protocol exposes
  to the node/MAC (send data, receive packet, link-failure feedback) and
  the hop-by-hop data prologue.
* :class:`~repro.routing.base.RouteDiscovery` — the paper's Procedure 1
  (buffer, expanding-ring retry, give up, flush), written once for the
  on-demand protocols LDR, AODV and DSR.
* :class:`~repro.routing.base.PacketBuffer` — per-destination buffering of
  data packets while route discovery runs.
* :mod:`repro.routing.costs` — LDR's pluggable link-cost models.
* :mod:`repro.routing.seqnum` — LDR's (timestamp, counter) labels and
  AODV's circular 32-bit sequence-number comparison.
* :mod:`repro.routing.loopcheck` — the one instant-by-instant
  successor-graph audit (Theorem 4 loops, Theorem 2 ordering, seqnum
  ownership) behind the invariant monitor, live and in trace replay,
  and behind the model checker.
"""

from repro.routing.base import PacketBuffer, RoutingProtocol
from repro.routing.costs import DistanceCost, HopCost, TableCost
from repro.routing.seqnum import LabeledSeq, circular_greater

__all__ = [
    "DistanceCost",
    "HopCost",
    "LabeledSeq",
    "PacketBuffer",
    "RoutingProtocol",
    "TableCost",
    "circular_greater",
]
