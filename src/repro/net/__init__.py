"""Wireless network substrate.

Replaces the GloMoSim/QualNet stack the paper ran on:

* :mod:`repro.net.packet` — packets and MAC frames.
* :mod:`repro.net.channel` — unit-disk wireless medium with a collision
  model (overlapping receptions corrupt each other) and carrier signalling.
* :mod:`repro.net.mac` — CSMA/CA medium access: carrier sense, random
  backoff, unreliable broadcast, unicast with retries and link-failure
  feedback to the routing layer.
* :mod:`repro.net.queue` — the drop-tail interface queue.
* :mod:`repro.net.node` — a node: MAC + routing protocol + application.
"""

from repro.net.channel import WirelessChannel
from repro.net.mac import CsmaMac, MacConfig
from repro.net.node import BROADCAST, Node
from repro.net.packet import DataPacket, Frame, Packet
from repro.net.spatial import GridIndex, ScanIndex

__all__ = [
    "BROADCAST",
    "CsmaMac",
    "DataPacket",
    "Frame",
    "GridIndex",
    "MacConfig",
    "Node",
    "Packet",
    "ScanIndex",
    "WirelessChannel",
]
