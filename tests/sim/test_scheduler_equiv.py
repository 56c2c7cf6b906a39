"""Differential suite for the event queue against a list model.

:class:`~repro.sim.events.EventScheduler` keeps its events in a binary
heap of ``(time, seq, event)`` tuples and inlines dispatch into its run
loop.  :class:`_ListQueue` below is the same contract written the slow,
obvious way: a plain list, and every dispatch takes the ``(time, seq)``
minimum of the live entries.  Seeded random *programs* of schedule /
schedule-at / cancel / timer-restart / partial-run operations are
replayed on both, and every observable (fire order, ``now``, ``epoch``,
``pending_count``, ``peek_time``) must agree exactly.

The quick parametrization runs in tier-1; a wider sweep rides the
``slow`` marker.  End-to-end row/trace identity lives in
``tests/experiments/test_scheduler_determinism.py``.
"""

import random

import pytest

from repro.sim import EventScheduler, SchedulerBase, Simulator, Timer

# A coarse delay grid keeps plenty of exact ties (the FIFO tie-break is
# the property most worth fuzzing) while still spreading events over
# many distinct instants.
_DELAYS = (0.0, 0.0, 0.001, 0.001, 0.01, 0.03125, 0.2, 0.2, 1.0, 3.0, 17.5)


class _ListQueue(SchedulerBase):
    """The scheduler contract over an unordered list (the model)."""

    def __init__(self):
        super().__init__()
        self._events = []

    def _insert(self, event):
        self._events.append(event)

    def _head(self):
        live = [event for event in self._events if not event.cancelled]
        return min(live, key=lambda event: (event.time, event.seq),
                   default=None)

    def peek_time(self):
        head = self._head()
        return None if head is None else head.time

    def run(self, until=None, max_events=None):
        count = 0
        while True:
            head = self._head()
            if head is None or (until is not None and head.time > until):
                break
            if max_events is not None and count >= max_events:
                break
            self._events.remove(head)
            self._now = head.time
            self._epoch += 1
            self._live -= 1
            head._sched = None
            head.callback(*head.args)
            count += 1
        if until is not None and self._now < until:
            self._now = until


def _fuzz_log(seed, steps, model=False):
    """Replay one seeded random scheduler program; return its trace.

    ``model`` swaps :class:`_ListQueue` in for the simulator's heap.  All
    randomness is drawn from a private ``random.Random(seed)`` in program
    order, so both queues given the same seed see the *same* program for
    as long as they behave identically — any divergence shows up as
    differing logs (the assertion), never as flakiness.
    """
    rng = random.Random(seed)
    sim = Simulator(seed=0)
    if model:
        queue = _ListQueue()
        sim.scheduler = queue
        sim.schedule, sim.schedule_at = queue.schedule, queue.schedule_at
    sched = sim.scheduler
    log = []
    handles = []  # every Event ever scheduled (fired or not) — cancel fuzz
    timers = [Timer(sim, (lambda i=i: log.append(
        ("timer", i, sim.now, sim.event_epoch)))) for i in range(4)]

    def fire(tag):
        log.append(("fire", tag, sim.now, sim.event_epoch))

    def spawn(tag, child_delay):
        # Child delay is drawn at schedule time (top-level, in program
        # order), so callbacks themselves consume no randomness.
        def cb():
            fire(tag)
            handles.append(sim.schedule(child_delay, fire, (tag, "child")))

        return cb

    for step in range(steps):
        op = rng.randrange(10)
        if op <= 3:  # schedule a plain or spawning event
            delay = rng.choice(_DELAYS)
            if rng.random() < 0.3:
                cb = spawn(step, rng.choice(_DELAYS))
                handles.append(sim.schedule(delay, cb))
            else:
                handles.append(sim.schedule(delay, fire, step))
        elif op == 4:  # absolute-time schedule
            handles.append(sim.schedule_at(
                sim.now + rng.choice(_DELAYS), fire, ("at", step)))
        elif op == 5 and handles:  # cancel anything ever scheduled
            handles[rng.randrange(len(handles))].cancel()
        elif op == 6:  # timer start/restart (restart storm is the point)
            timer = timers[rng.randrange(len(timers))]
            delay = rng.choice(_DELAYS)
            if timer.armed:
                timer.restart(delay)
            else:
                timer.start(delay)
        elif op == 7 and rng.random() < 0.5:  # timer cancel
            timers[rng.randrange(len(timers))].cancel()
        elif op == 8:  # partial drain by time
            sim.run(until=sim.now + rng.choice(_DELAYS))
        else:  # partial drain by event count
            sim.run(max_events=rng.randrange(4))
        log.append(("state", step, sim.now, sim.event_epoch,
                    sched.pending_count(), sched.peek_time()))
    sim.run()  # drain everything still queued
    log.append(("final", sim.now, sim.event_epoch, sched.pending_count()))
    return log


@pytest.mark.parametrize("seed", range(8))
def test_backends_agree_on_random_programs(seed):
    assert _fuzz_log(seed, 150) == _fuzz_log(seed, 150, model=True)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 72))
def test_backends_agree_wide_sweep(seed):
    assert _fuzz_log(seed, 400) == _fuzz_log(seed, 400, model=True)


def test_500_simultaneous_events_fire_fifo():
    # Insertion order must be the fire order however many events share
    # one instant.
    sched = EventScheduler()
    fired = []
    for i in range(500):
        sched.schedule(1.0, fired.append, i)
    sched.run()
    assert fired == list(range(500))


def test_interleaved_ties_preserve_global_seq_order():
    # Ties created before, during, and after partial runs still honor the
    # global sequence numbering, including events scheduled mid-dispatch.
    sched = EventScheduler()
    fired = []
    sched.schedule(2.0, fired.append, "a")
    sched.schedule(2.0, lambda: (fired.append("b"),
                                 sched.schedule(0.0, fired.append, "d")))
    sched.run(until=1.0)
    sched.schedule_at(2.0, fired.append, "c")
    sched.run()
    assert fired == ["a", "b", "c", "d"]


def test_schedule_reserved_rejects_past_times():
    sched = EventScheduler()
    sched.schedule(1.0, lambda: None)
    sched.run()
    assert sched.now == 1.0
    seq = sched.reserve_seq()
    with pytest.raises(ValueError, match="in the past"):
        sched.schedule_reserved(0.5, seq, lambda: None)
