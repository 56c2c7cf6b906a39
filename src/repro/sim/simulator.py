"""The simulation façade: clock + scheduler + RNG streams.

A :class:`Simulator` is passed to every component; it is the single source
of time and randomness.  Network-level wiring (nodes, channel, traffic)
lives in :mod:`repro.net` and :mod:`repro.experiments`, not here — the
kernel stays protocol-agnostic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.profile import Profiler
from repro.sim.events import Event, EventScheduler
from repro.sim.rng import RngStreams

if TYPE_CHECKING:
    import random


class Simulator:
    """Owns the event loop and randomness for one simulation run.

    ``scheduler`` is the run's :class:`~repro.sim.events.EventScheduler`;
    components queue work through :attr:`schedule` / :attr:`schedule_at`
    and read the clock through :attr:`now`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.scheduler = EventScheduler()
        self.rng = RngStreams(seed)
        self.seed = seed
        # Always-on counter/timer registry (repro.obs).  Hot-path
        # components bump deterministic counters through it; wall-clock
        # phase timers stay inside obs/profile.py (the RL002 allowlist).
        self.profiler: Profiler = Profiler()
        # Bound-method fast path: scheduling is the hottest call in the
        # whole simulation, so skip the wrapper frame per call.  Same
        # signatures as SchedulerBase.schedule / schedule_at.
        self.schedule: Callable[..., Event] = self.scheduler.schedule
        self.schedule_at: Callable[..., Event] = self.scheduler.schedule_at

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        # Reads the scheduler's clock field directly rather than its ``now``
        # property: this accessor is hit hundreds of thousands of times
        # per trial and the double property hop was measurable.
        return self.scheduler._now

    @property
    def event_epoch(self) -> int:
        """Dispatched-event count; see :attr:`SchedulerBase.epoch`."""
        return self.scheduler._epoch

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Drive the event loop; see :meth:`EventScheduler.run`.

        Dispatched-event counts accumulate in ``profiler`` (the epoch
        delta, so nested/partial runs attribute their own work).
        """
        before = self.scheduler.epoch
        with self.profiler.timed("sim.run"):
            self.scheduler.run(until=until, max_events=max_events)
        self.profiler.count("sim.events_dispatched",
                            self.scheduler.epoch - before)

    def stream(self, name: str) -> random.Random:
        """Named deterministic RNG stream (see :class:`RngStreams`)."""
        return self.rng.stream(name)
