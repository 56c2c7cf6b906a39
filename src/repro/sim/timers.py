"""Restartable one-shot timers.

Routing protocols are full of "do X unless cancelled within T seconds"
logic: route lifetimes, RREQ retries, hello intervals, engagement caches.
:class:`Timer` wraps the scheduler's cancel-and-reschedule dance so protocol
code reads declaratively (``self.retry_timer.restart(2 * ttl * latency)``).

``restart`` is the hot operation — MAC backoff and route-lifetime
refreshes restart timers far more often than they let them expire — so it
is O(1) and queue-free whenever the deadline only moves *later*: the
already-queued event is kept as a **carrier** and the real deadline is
just a field update.  When the carrier fires early, it re-queues itself at
the true deadline.  The tie-break sequence number is still reserved at
restart time (exactly where the old cancel-and-reschedule allocated one),
so the eventual expiry event carries the same ``(time, seq)`` key the
eager implementation would have produced and fire order is byte-identical
— ``tests/sim/test_scheduler_equiv.py`` fuzzes timer restarts against a
list-model queue, and the row pins hold it end to end.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.events import Event
from repro.sim.simulator import Simulator


class Timer:
    """A one-shot timer bound to a simulator and a callback.

    The callback receives no arguments; capture state in a closure or bound
    method.  Restarting an armed timer supersedes the previous expiry.
    """

    __slots__ = ("_sim", "_callback", "_event", "_deadline", "_seq")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        self._deadline: Optional[float] = None
        self._seq = -1

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._deadline is not None

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or ``None`` when idle."""
        return self._deadline

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now (error if already armed)."""
        if self.armed:
            raise RuntimeError("timer already armed; use restart()")
        if delay < 0:
            raise ValueError(
                "cannot schedule an event in the past (delay=%r)" % delay
            )
        sched = self._sim.scheduler
        deadline = sched.now + delay
        seq = sched.reserve_seq()
        self._event = sched.schedule_reserved(deadline, seq, self._fire)
        self._deadline = deadline
        self._seq = seq

    def restart(self, delay: float) -> None:
        """Arm the timer, superseding any pending expiry.

        O(1): when the deadline moves later (the overwhelmingly common
        case — lifetime refreshes, backoff extensions), the queued event
        stays put as a carrier and only this timer's fields change; the
        scheduler sees one live entry no matter how many times a timer is
        restarted.  A sequence number is reserved either way, keeping the
        tie-break identical to eager cancel-and-reschedule.
        """
        if delay < 0:
            self.cancel()
            raise ValueError(
                "cannot schedule an event in the past (delay=%r)" % delay
            )
        sched = self._sim.scheduler
        deadline = sched.now + delay
        seq = sched.reserve_seq()
        event = self._event
        if event is not None and not event.cancelled and event.time <= deadline:
            self._deadline = deadline
            self._seq = seq
            return
        if event is not None:
            event.cancel()
        self._event = sched.schedule_reserved(deadline, seq, self._fire)
        self._deadline = deadline
        self._seq = seq

    def cancel(self) -> None:
        """Disarm; a no-op when idle."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._deadline = None

    def _fire(self) -> None:
        event = self._event
        deadline = self._deadline
        if event is not None and deadline is not None and event.seq != self._seq:
            # The queued event was only a carrier: a deferred restart
            # moved the real deadline later.  Re-queue at the true
            # deadline under the reserved sequence number — same (time,
            # seq) an eager reschedule would have used, so ordering
            # against other same-instant events is unchanged.
            self._event = self._sim.scheduler.schedule_reserved(
                deadline, self._seq, self._fire
            )
            return
        self._event = None
        self._deadline = None
        self._callback()
