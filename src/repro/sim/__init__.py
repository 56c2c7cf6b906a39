"""Discrete-event simulation kernel.

This package replaces the GloMoSim/QualNet event engine used in the paper
with a small, deterministic scheduler:

* :class:`~repro.sim.events.EventScheduler` — the event queue: a binary
  heap of timestamped callbacks, with stable FIFO ordering for
  simultaneous events; every simulation runs on it.
* :class:`~repro.sim.simulator.Simulator` — simulation clock, scheduler
  and per-component random number streams in one object.
* :class:`~repro.sim.timers.Timer` — restartable one-shot timer built on
  the scheduler, used pervasively by the routing protocols; ``restart``
  is O(1) via deferred re-arm.
"""

from repro.sim.events import Event, EventScheduler, SchedulerBase
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer

__all__ = [
    "Event",
    "EventScheduler",
    "RngStreams",
    "SchedulerBase",
    "Simulator",
    "Timer",
]
