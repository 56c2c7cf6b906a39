"""Differential equivalence suite for the event-scheduler backends.

The calendar queue (:class:`~repro.sim.events.CalendarScheduler`) is a
pure speed substitute for the reference binary heap
(:class:`~repro.sim.events.EventScheduler`): same ``(time, seq)`` FIFO
tie-break, same clock/epoch accounting, same cancellation semantics.
This file holds that claim mechanically — seeded random *programs* of
schedule / schedule-at / cancel / timer-restart / partial-run operations
are replayed against both backends and every observable (fire order,
``now``, ``epoch``, ``pending_count``, ``peek_time``) must agree exactly.

The quick parametrization runs in tier-1; a wider sweep rides the
``slow`` marker.  End-to-end row/trace identity lives in
``tests/experiments/test_scheduler_determinism.py``.
"""

import random

import pytest

from repro.sim import CalendarScheduler, EventScheduler, Simulator, Timer

# A coarse delay grid keeps plenty of exact ties (the FIFO tie-break is
# the property most worth fuzzing) while still spreading events across
# many calendar buckets and rungs.
_DELAYS = (0.0, 0.0, 0.001, 0.001, 0.01, 0.03125, 0.2, 0.2, 1.0, 3.0, 17.5)


def _fuzz_log(scheduler_cls, seed, steps):
    """Replay one seeded random scheduler program; return its trace.

    All randomness is drawn from a private ``random.Random(seed)`` in
    program order, so two backends given the same seed see the *same*
    program for as long as they behave identically — any divergence
    shows up as differing logs (the assertion), never as flakiness.
    """
    rng = random.Random(seed)
    sim = Simulator(seed=0, scheduler=scheduler_cls)
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
    assert _fuzz_log(EventScheduler, seed, 150) == \
        _fuzz_log(CalendarScheduler, seed, 150)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 72))
def test_backends_agree_wide_sweep(seed):
    assert _fuzz_log(EventScheduler, seed, 400) == \
        _fuzz_log(CalendarScheduler, seed, 400)


def test_simultaneous_events_fire_fifo_across_rungs(scheduler_cls):
    # 500 events at one instant overflow a single calendar bucket and
    # force rung splits; insertion order must still be the fire order.
    sched = scheduler_cls()
    fired = []
    for i in range(500):
        sched.schedule(1.0, fired.append, i)
    sched.run()
    assert fired == list(range(500))


def test_interleaved_ties_preserve_global_seq_order(scheduler_cls):
    # Ties created before, during, and after partial runs still honor the
    # global sequence numbering, including events scheduled mid-dispatch.
    sched = scheduler_cls()
    fired = []
    sched.schedule(2.0, fired.append, "a")
    sched.schedule(2.0, lambda: (fired.append("b"),
                                 sched.schedule(0.0, fired.append, "d")))
    sched.run(until=1.0)
    sched.schedule_at(2.0, fired.append, "c")
    sched.run()
    assert fired == ["a", "b", "c", "d"]


def test_calendar_rung_split_keeps_time_order():
    # A dense far-future cluster inside one bucket of a wide rung forces
    # the recursive rung *split* (distinct times, > _SPLIT_THRESHOLD
    # entries): everything must still fire in exact (time, seq) order.
    sched = CalendarScheduler()
    fired = []
    sched.schedule(0.5, fired.append, 0.5)
    for i in range(60):
        at = 100.0 + i * 1e-5
        sched.schedule_at(at, fired.append, at)
    sched.schedule_at(1000.0, fired.append, 1000.0)
    sched.run()
    assert fired == sorted(fired)
    assert len(fired) == 62 and sched.pending_count() == 0


def test_schedule_reserved_rejects_past_times(scheduler_cls):
    sched = scheduler_cls()
    sched.schedule(1.0, lambda: None)
    sched.run()
    assert sched.now == 1.0
    seq = sched.reserve_seq()
    with pytest.raises(ValueError, match="in the past"):
        sched.schedule_reserved(0.5, seq, lambda: None)
