"""Event scheduling primitives.

Two scheduler classes share one base, :class:`SchedulerBase`:

* :class:`CalendarScheduler` — the scheduler every simulation runs on: a
  calendar/ladder queue where future events land in O(1) append-only
  buckets and only the bucket currently being drained pays heap
  discipline, over C-compared ``(time, seq, event)`` tuples instead of
  Python-level ``Event.__lt__`` calls.  Large simulations spend
  double-digit percentages of their wall clock inside a global heap; this
  class exists to take that off the table.
* :class:`EventScheduler` — the original binary heap keyed on
  ``(time, sequence)``.  It is the **reference**: small, obviously
  correct, and the implementation every differential test replays
  against.  Tests and the kernel bench pass the class to
  :class:`~repro.sim.simulator.Simulator` (or to
  :class:`~repro.experiments.scenario.Scenario`) to run on it.

Both order events strictly by ``(time, seq)``: the sequence number breaks
ties so that events scheduled for the same instant fire in the order they
were scheduled (FIFO), which keeps simulations deterministic and makes
protocol races reproducible across runs with the same seed.  The two
are **observationally identical** — same fire order, same ``now``, same
``epoch``, same ``pending_count`` — which the differential suite in
``tests/sim/test_scheduler_equiv.py`` enforces with seeded random
schedule/cancel/restart programs, and
``tests/experiments/test_scheduler_determinism.py`` enforces end-to-end
(byte-identical metric rows and trace artifacts for every registry
protocol under churn faults).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Iterator, List, Optional, Tuple

#: Calendar-queue shape: buckets per rung, the activation size beyond
#: which a bucket is subdivided into a finer rung instead of heapified,
#: and the bucket width below which subdivision stops (events closer
#: together than this — including exact ties — are heap-ordered).
_RUNG_BUCKETS = 64
_SPLIT_THRESHOLD = 48
_MIN_BUCKET_WIDTH = 1e-9


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
                sched._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t={:.6f}, {}, {})".format(
            self.time, getattr(self.callback, "__name__", self.callback), state
        )


class SchedulerBase:
    """Clock, sequence allocation, and the scheduler API contract.

    Subclasses implement the queue itself through three primitives —
    :meth:`_insert`, :meth:`_ensure_head`, :meth:`_pop_head` /
    :meth:`_head_time` — and may override :meth:`run` with a specialized
    hot loop.  Everything observable (``now``, ``epoch``, fire order,
    ``pending_count``) is defined here once so the backends cannot drift.
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

    def queued_count(self) -> int:
        """Queue entries still held, including cancelled ones (for tests:
        pins that lazily-deleted storms do not accumulate)."""
        raise NotImplementedError

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

    # -- dispatch --------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        if self._ensure_head():
            return self._head_time()
        return None

    def step(self) -> bool:
        """Run the single next event.  Returns ``False`` when none remain."""
        if not self._ensure_head():
            return False
        self._dispatch(self._pop_head())
        return True

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run events in order until the queue drains or limits are hit.

        ``until`` is an absolute simulation time; events at exactly
        ``until`` still fire.  ``max_events`` bounds the number of
        *dispatched callbacks* — events drained because they were
        cancelled never count toward the cap — guarding against runaway
        event loops in tests.
        """
        count = 0
        while self._ensure_head():
            if until is not None and self._head_time() > until:
                break
            if max_events is not None and count >= max_events:
                break
            self._dispatch(self._pop_head())
            count += 1
        if until is not None and self._now < until:
            self._now = until

    def _dispatch(self, event: Event) -> None:
        self._now = event.time
        self._epoch += 1
        self._live -= 1
        event._sched = None
        event.callback(*event.args)

    def _note_cancel(self) -> None:
        self._live -= 1

    # -- queue primitives (backend-specific) -----------------------------

    def _insert(self, event: Event) -> None:
        raise NotImplementedError

    def _ensure_head(self) -> bool:
        """Discard cancelled events until the head is live (or queue empty)."""
        raise NotImplementedError

    def _head_time(self) -> float:
        raise NotImplementedError

    def _pop_head(self) -> Event:
        raise NotImplementedError


class EventScheduler(SchedulerBase):
    """The deterministic binary-heap scheduler (the live reference).

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
        self._heap: List[Event] = []

    def queued_count(self) -> int:
        return len(self._heap)

    def _insert(self, event: Event) -> None:
        heapq.heappush(self._heap, event)

    def _ensure_head(self) -> bool:
        heap = self._heap
        while heap:
            if heap[0].cancelled:
                heapq.heappop(heap)
                continue
            return True
        return False

    def _head_time(self) -> float:
        return self._heap[0].time

    def _pop_head(self) -> Event:
        return heapq.heappop(self._heap)


class _Rung:
    """One ladder rung: equal-width buckets over a contiguous span.

    ``idx`` is the next bucket to activate; everything before it has
    already been drained into finer structure.  Buckets are plain lists of
    ``(time, seq, event)`` tuples — insertion is an O(1) append, and order
    inside a bucket is only established when the bucket is activated.
    """

    __slots__ = ("start", "width", "buckets", "idx")

    def __init__(self, start: float, width: float) -> None:
        self.start = start
        self.width = width
        self.buckets: List[List[Tuple[float, int, Event]]] = [
            [] for _ in range(_RUNG_BUCKETS)
        ]
        self.idx = 0

    @property
    def limit(self) -> float:
        return self.start + _RUNG_BUCKETS * self.width

    def place(self, tup: Tuple[float, int, Event]) -> None:
        i = int((tup[0] - self.start) / self.width)
        # Clamp against float rounding at bucket boundaries: an event that
        # belongs at an already-activated edge goes into the next bucket
        # to activate (it is still correctly ordered there — activation
        # heap-orders bucket contents), never into a drained one.
        if i < self.idx:
            i = self.idx
        elif i >= _RUNG_BUCKETS:
            i = _RUNG_BUCKETS - 1
        self.buckets[i].append(tup)


class CalendarScheduler(SchedulerBase):
    """Calendar/ladder-queue scheduler: bucketed future, heap-ordered now.

    Three tiers, nearest first:

    * ``_near`` — a small heap of ``(time, seq, event)`` tuples holding
      every queued event with ``time < _near_hi``.  All dispatching pops
      from here; tuple comparison keeps it at C speed.
    * ``_rungs`` — a stack of :class:`_Rung` bucket arrays over the
      not-yet-reached future, finest (soonest) rung last.  Scheduling into
      a rung is an O(1) list append.  Activating an over-full bucket
      pushes a finer rung subdividing just that bucket's span, so dense
      regions (MAC backoff microseconds) and sparse regions (route
      lifetimes) each get buckets matched to their density.
    * ``_overflow`` — an unsorted list for events beyond every rung; it is
      re-bucketed into a fresh rung when the ladder drains down to it.

    The heap only ever holds one activated bucket's worth of events, so
    the per-event cost stays near O(1) regardless of how many hundreds of
    thousands of events are queued behind it.
    """

    def __init__(self) -> None:
        super().__init__()
        self._near: List[Tuple[float, int, Event]] = []
        self._near_hi = 0.0
        self._rungs: List[_Rung] = []
        self._overflow: List[Tuple[float, int, Event]] = []
        self._queued = 0

    def queued_count(self) -> int:
        return self._queued

    # -- queue primitives ------------------------------------------------

    def _insert(self, event: Event) -> None:
        tup = (event.time, event.seq, event)
        self._queued += 1
        t = event.time
        if t < self._near_hi:
            heapq.heappush(self._near, tup)
            return
        for rung in reversed(self._rungs):
            if t < rung.limit:
                rung.place(tup)
                return
        self._overflow.append(tup)

    def _ensure_head(self) -> bool:
        near = self._near
        while True:
            while near:
                if near[0][2].cancelled:
                    heapq.heappop(near)
                    self._queued -= 1
                    continue
                return True
            if not self._advance():
                return False

    def _head_time(self) -> float:
        return self._near[0][0]

    def _pop_head(self) -> Event:
        self._queued -= 1
        return heapq.heappop(self._near)[2]

    # -- ladder machinery ------------------------------------------------

    def _advance(self) -> bool:
        """Move the next non-empty region of the future into ``_near``.

        Called only when ``_near`` is empty.  Returns ``False`` when no
        events remain anywhere.
        """
        near = self._near
        rungs = self._rungs
        while True:
            while rungs:
                rung = rungs[-1]
                idx = rung.idx
                buckets = rung.buckets
                while idx < _RUNG_BUCKETS and not buckets[idx]:
                    idx += 1
                if idx >= _RUNG_BUCKETS:
                    rungs.pop()
                    continue
                bucket = buckets[idx]
                buckets[idx] = []
                rung.idx = idx + 1
                live = [tup for tup in bucket if not tup[2].cancelled]
                self._queued -= len(bucket) - len(live)
                lo = rung.start + idx * rung.width
                width = rung.width / _RUNG_BUCKETS
                if (
                    len(live) > _SPLIT_THRESHOLD
                    and width > _MIN_BUCKET_WIDTH
                    and live[0][0] != max(tup[0] for tup in live)
                ):
                    finer = _Rung(lo, width)
                    for tup in live:
                        finer.place(tup)
                    rungs.append(finer)
                    continue
                self._near_hi = lo + rung.width
                if live:
                    near.extend(live)
                    heapq.heapify(near)
                    return True
            overflow = self._overflow
            if not overflow:
                return False
            live = [tup for tup in overflow if not tup[2].cancelled]
            self._queued -= len(overflow) - len(live)
            self._overflow = []
            if not live:
                return False
            lo = min(tup[0] for tup in live)
            hi = max(tup[0] for tup in live)
            if hi - lo <= _MIN_BUCKET_WIDTH:
                # Degenerate span (ties, or nanosecond-close): heap-order
                # directly.  nextafter keeps later same-instant inserts
                # routed into the near heap rather than cycling through
                # the (now empty) overflow list.
                near.extend(live)
                heapq.heapify(near)
                self._near_hi = math.nextafter(hi, math.inf)
                return True
            rung = _Rung(lo, (hi - lo) / (_RUNG_BUCKETS - 1))
            for tup in live:
                rung.place(tup)
            rungs.append(rung)

    # -- specialized hot loop --------------------------------------------

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Same contract as :meth:`SchedulerBase.run`, with the head
        pruning and dispatch inlined (this loop is the simulation's
        single hottest path)."""
        near = self._near
        heappop = heapq.heappop
        count = 0
        while True:
            if not near and not self._advance():
                break
            head = near[0]
            event = head[2]
            if event.cancelled:
                heappop(near)
                self._queued -= 1
                continue
            time = head[0]
            if until is not None and time > until:
                break
            if max_events is not None and count >= max_events:
                break
            heappop(near)
            self._queued -= 1
            self._now = time
            self._epoch += 1
            self._live -= 1
            event._sched = None
            event.callback(*event.args)
            count += 1
        if until is not None and self._now < until:
            self._now = until

