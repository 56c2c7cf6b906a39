"""Event scheduling primitives.

:class:`EventScheduler` is the one event queue every simulation runs on:
a binary heap of ``(time, seq, event)`` tuples.  It orders events strictly
by ``(time, seq)``: the sequence number breaks ties so that events
scheduled for the same instant fire in the order they were scheduled
(FIFO), which keeps simulations deterministic and makes protocol races
reproducible across runs with the same seed.  Sequence numbers are
unique, so tuple comparison (done in C) never reaches the event itself.

:class:`SchedulerBase` holds the clock, sequence allocation and the
scheduling half of the API; a subclass supplies the queue itself.
``tests/sim/test_scheduler_equiv.py`` replays seeded random
schedule/cancel/restart programs against the heap and a plain-list model
of the same contract, and
``tests/experiments/test_scheduler_determinism.py`` pins every registry
protocol's metric row and trace artifact end to end.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Iterator, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Events are created through :meth:`SchedulerBase.schedule`; user code
    holds on to them only to :meth:`cancel` them.  A cancelled event stays
    queued but is skipped when popped (lazy deletion), which keeps
    cancellation O(1); the scheduler's live count is maintained eagerly so
    ``pending_count`` stays O(1) too.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sched")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        sched: Optional["SchedulerBase"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sched = sched

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            sched = self._sched
            if sched is not None:
                self._sched = None
                sched._live -= 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t={:.6f}, {}, {})".format(
            self.time, getattr(self.callback, "__name__", self.callback), state
        )


class SchedulerBase:
    """Clock, sequence allocation, and the scheduling half of the API.

    A subclass provides the queue: :meth:`_insert` takes every new event,
    and ``peek_time``, ``step`` and ``run`` drain it.  A dispatch sets
    ``now`` to the event's time, bumps ``epoch``, drops the live count,
    clears the event's back-reference (so a late ``cancel`` cannot count
    twice) and calls the callback.
    """

    def __init__(self) -> None:
        self._seq: Iterator[int] = itertools.count()
        self._now = 0.0
        self._epoch = 0
        self._live = 0

    # -- observables -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def epoch(self) -> int:
        """Count of events dispatched so far.

        Increments once per callback actually invoked (cancelled events
        are skipped), *before* the callback runs, so all work done inside
        one event shares one epoch value and no two events ever share one.
        Memoized per-event state — the spatial index's position snapshots
        (:mod:`repro.net.spatial`) — keys on it for invalidation.
        """
        return self._epoch

    def pending_count(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return self._live

    # -- scheduling ------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled.  Negative
        delays are rejected: an event cannot fire in the past.
        """
        if delay < 0:
            raise ValueError("cannot schedule an event in the past (delay=%r)" % delay)
        event = Event(self._now + delay, next(self._seq), callback, args, self)
        self._live += 1
        self._insert(event)
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def reserve_seq(self) -> int:
        """Allocate (and consume) one tie-break sequence number.

        The timer layer uses this to keep deferred re-arms byte-identical
        to the eager cancel-and-reschedule dance: a ``Timer.restart``
        reserves its sequence number at restart time, exactly where the
        old implementation allocated one, and hands it back through
        :meth:`schedule_reserved` when the expiry is finally queued.
        """
        return next(self._seq)

    def schedule_reserved(
        self, time: float, seq: int, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule at absolute ``time`` with a previously reserved seq."""
        if time < self._now:
            raise ValueError(
                "cannot schedule an event in the past (time=%r, now=%r)"
                % (time, self._now)
            )
        event = Event(time, seq, callback, args, self)
        self._live += 1
        self._insert(event)
        return event

    def _insert(self, event: Event) -> None:
        raise NotImplementedError


class EventScheduler(SchedulerBase):
    """The deterministic binary-heap scheduler.

    >>> sched = EventScheduler()
    >>> fired = []
    >>> _ = sched.schedule(1.0, fired.append, "a")
    >>> _ = sched.schedule(0.5, fired.append, "b")
    >>> sched.run(until=2.0)
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        super().__init__()
        self._heap: List[Tuple[float, int, Event]] = []

    def queued_count(self) -> int:
        """Queue entries still held, including cancelled ones (for tests:
        pins that lazily-deleted storms do not accumulate)."""
        return len(self._heap)

    def _insert(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, event.seq, event))

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the single next event.  Returns ``False`` when none remain."""
        epoch = self._epoch
        self.run(max_events=1)
        return self._epoch != epoch

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run events in order until the queue drains or limits are hit.

        ``until`` is an absolute simulation time; events at exactly
        ``until`` still fire, and a clock left behind ``until`` is then
        advanced to it.  ``max_events`` bounds the number of
        *dispatched callbacks* — events drained because they were
        cancelled never count toward the cap — guarding against runaway
        event loops in tests.  Head pruning and dispatch are inlined: this
        loop is the simulation's single hottest path.
        """
        heap = self._heap
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        count = 0
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                continue
            if time > horizon:
                break
            if max_events is not None and count >= max_events:
                break
            heappop(heap)
            self._now = time
            self._epoch += 1
            self._live -= 1
            event._sched = None
            event.callback(*event.args)
            count += 1
        if until is not None and self._now < until:
            self._now = until
