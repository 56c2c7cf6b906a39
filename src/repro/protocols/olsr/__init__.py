"""OLSR — Optimized Link State Routing (proactive baseline).

HELLO messages perform link sensing and neighbor discovery; each node
selects a minimal set of *multipoint relays* (MPRs) covering its two-hop
neighborhood; only MPRs forward flooded traffic and only nodes selected as
MPR originate topology-control (TC) messages.  Routes are shortest paths
over the partial topology graph.

The paper patched the INRIA implementation with a **FIFO jitter queue**
(uniform 0–15 ms, order-preserving) for control packets — reproduced here
by :class:`repro.protocols.olsr.protocol.FifoJitterQueue`, on by default;
it draws from OLSR's own per-node stream.
"""

from repro.protocols.olsr.protocol import OlsrConfig, OlsrProtocol

__all__ = ["OlsrConfig", "OlsrProtocol"]
