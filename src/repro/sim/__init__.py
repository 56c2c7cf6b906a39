"""Discrete-event simulation kernel.

This package replaces the GloMoSim/QualNet event engine used in the paper
with a small, deterministic scheduler:

* :class:`~repro.sim.events.CalendarScheduler` — the bucketed calendar
  queue of timestamped callbacks, with stable FIFO ordering for
  simultaneous events; every simulation runs on it.
* :class:`~repro.sim.events.EventScheduler` — the reference binary heap
  with identical observable semantics (the differential suite in
  ``tests/sim/test_scheduler_equiv.py`` holds the two to event-for-event
  agreement).
* :class:`~repro.sim.simulator.Simulator` — simulation clock, scheduler
  and per-component random number streams in one object; tests run it on
  the reference with ``Simulator(scheduler=EventScheduler)``.
* :class:`~repro.sim.timers.Timer` — restartable one-shot timer built on
  the scheduler, used pervasively by the routing protocols; ``restart``
  is O(1) via deferred re-arm.
"""

from repro.sim.events import (
    CalendarScheduler,
    Event,
    EventScheduler,
    SchedulerBase,
)
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer

__all__ = [
    "CalendarScheduler",
    "Event",
    "EventScheduler",
    "RngStreams",
    "SchedulerBase",
    "Simulator",
    "Timer",
]
