"""The protocols LDR is compared against.

Section 4's baselines:

* :mod:`repro.protocols.aodv` — Ad hoc On-demand Distance Vector routing
  (IETF draft 10 semantics): per-destination sequence numbers that *any*
  node may increment on route breaks — the behaviour LDR removes.
* :mod:`repro.protocols.dsr` — Dynamic Source Routing: route caches and
  source routes in data packets.
* :mod:`repro.protocols.olsr` — Optimized Link State Routing: proactive
  HELLO/TC with multipoint relays, including the paper's FIFO jitter-queue
  fix to the INRIA implementation.

Section 1's coordination-based alternatives (DUAL, TORA, ROAM) are not
built: their loop-freedom proofs assume reliable, ordered delivery
between neighbours, which the broadcast MAC does not give.

And one instrument that is not a protocol:

* :mod:`repro.protocols.oracle` — shortest paths read from the true
  topology, with no control traffic: the delivery upper bound.
"""

from repro.protocols.aodv import AodvConfig, AodvProtocol
from repro.protocols.dsr import DsrConfig, DsrProtocol
from repro.protocols.olsr import OlsrConfig, OlsrProtocol
from repro.protocols.oracle import OracleConfig, OracleProtocol

__all__ = [
    "AodvConfig",
    "AodvProtocol",
    "DsrConfig",
    "DsrProtocol",
    "OlsrConfig",
    "OlsrProtocol",
    "OracleConfig",
    "OracleProtocol",
]
