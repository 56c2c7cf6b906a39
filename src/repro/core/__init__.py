"""LDR — the Labeled Distance Routing protocol (the paper's contribution).

LDR is an on-demand routing protocol that is loop-free at every instant.
It keeps, per destination, a *distance*, a *feasible distance* (the minimum
distance ever attained for the current sequence number) and a
*destination-controlled sequence number*; the three route-discovery
conditions (NDC, FDC, SDC — :mod:`repro.core.conditions`) let nodes change
successors without inter-nodal coordination, and destination sequence-number
increments act as resets of the feasible-distance invariant.

Public API:

* :class:`~repro.core.protocol.LdrProtocol` — install on a
  :class:`repro.net.Node`.
* :class:`~repro.core.config.LdrConfig` — timers and the five Section-4
  optimizations.
* :mod:`repro.core.conditions` — the pure NDC/FDC/SDC predicates (used
  directly by the property-based tests).
"""

from repro.core.config import LdrConfig
from repro.core.modelcheck import BreachFound, ModelChecker, verify_topology
from repro.core.conditions import ndc_accepts, sdc_allows_reply, t_bit_update
from repro.core.messages import LdrRerr, LdrRrep, LdrRreq
from repro.core.protocol import LdrProtocol
from repro.core.state import LdrRouteEntry

__all__ = [
    "BreachFound",
    "LdrConfig",
    "LdrProtocol",
    "LdrRerr",
    "LdrRouteEntry",
    "LdrRrep",
    "LdrRreq",
    "ModelChecker",
    "ndc_accepts",
    "sdc_allows_reply",
    "t_bit_update",
    "verify_topology",
]
