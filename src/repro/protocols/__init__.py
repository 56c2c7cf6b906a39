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

Section 1's loop-free reference points, run for comparison only:

* :mod:`repro.protocols.dual` — DUAL: feasible distances plus diffusing
  computations.
* :mod:`repro.protocols.roam` — ROAM: DUAL's invariant on demand, with a
  reliable multi-hop search as its reset.
* :mod:`repro.protocols.tora` — TORA: a destination-oriented DAG kept by
  link reversal.

And one instrument that is not a protocol:

* :mod:`repro.protocols.oracle` — shortest paths read from the true
  topology, with no control traffic: the delivery upper bound.
"""

from repro.protocols.aodv import AodvConfig, AodvProtocol
from repro.protocols.dsr import DsrConfig, DsrProtocol
from repro.protocols.dual import DualConfig, DualProtocol
from repro.protocols.olsr import OlsrConfig, OlsrProtocol
from repro.protocols.oracle import OracleConfig, OracleProtocol
from repro.protocols.roam import RoamConfig, RoamProtocol
from repro.protocols.tora import ToraConfig, ToraProtocol

__all__ = [
    "AodvConfig",
    "AodvProtocol",
    "DsrConfig",
    "DsrProtocol",
    "DualConfig",
    "DualProtocol",
    "OlsrConfig",
    "OlsrProtocol",
    "OracleConfig",
    "OracleProtocol",
    "RoamConfig",
    "RoamProtocol",
    "ToraConfig",
    "ToraProtocol",
]
