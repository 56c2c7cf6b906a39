"""Seeded random-number streams.

Each simulation component (mobility, traffic, MAC, each routing protocol
instance...) draws from its own named stream.  Separate streams guarantee
that, say, changing how many random numbers the MAC consumes does not
perturb the mobility pattern — trials stay comparable across protocols, the
property the paper relies on when it reuses "the same mobility and traffic
load patterns" between GloMoSim and QualNet runs.

Registered stream names
-----------------------

``mobility``        waypoint draws and static placements
``traffic``         CBR flow endpoints, start staggers, lifetimes
``mac.<node>``      per-node CSMA backoff
``faults``          every draw of the fault injector (packet-fuzz
                    corrupt/duplicate/delay decisions) — isolating it here
                    is what makes a fault plan an *overlay*: adding or
                    removing faults never shifts the mobility, traffic, or
                    backoff sequences of the underlying scenario, and the
                    same ``(seed, plan)`` pair replays byte-identically
``exec``            host-side campaign supervision: retry-backoff jitter
                    (seeded per trial key) and chaos-harness fault
                    choices.  This stream lives *outside* the simulated
                    world — no simulation component may touch it, and no
                    draw from it can perturb result bytes: a retried
                    trial re-runs from its own scenario seed, so rows are
                    identical whether a trial succeeded on attempt 1 or
                    attempt N

Components must obtain streams through ``Simulator.stream(name)``; the
lint rules (RL001/RL002) reject direct ``random``/clock use inside the
deterministic layers, including ``faults``.  The ``exec`` stream is the
one exception to ``Simulator.stream()`` acquisition: the campaign engine
builds it directly from :class:`RngStreams` because it runs where no
simulator exists.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


class RngStreams:
    """A family of independent :class:`random.Random` streams.

    Streams are derived from a master seed and a stream name, so the same
    ``(seed, name)`` always yields the same sequence regardless of creation
    order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            # Mix the master seed with a stable hash of the name.  zlib.crc32
            # is deterministic across processes (unlike hash()).
            mixed = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF
            rng = random.Random(mixed)
            self._streams[name] = rng
        return rng

    def __contains__(self, name: str) -> bool:
        return name in self._streams
