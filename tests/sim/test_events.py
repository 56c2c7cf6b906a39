"""Unit tests for the event scheduler."""

import pytest

from repro.sim.events import EventScheduler


def test_events_fire_in_time_order():
    sched = EventScheduler()
    fired = []
    sched.schedule(2.0, fired.append, "late")
    sched.schedule(1.0, fired.append, "early")
    sched.schedule(1.5, fired.append, "middle")
    sched.run()
    assert fired == ["early", "middle", "late"]


def test_simultaneous_events_fire_fifo():
    sched = EventScheduler()
    fired = []
    for i in range(10):
        sched.schedule(1.0, fired.append, i)
    sched.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    sched = EventScheduler()
    seen = []
    sched.schedule(3.5, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [3.5]


def test_run_until_stops_before_later_events():
    sched = EventScheduler()
    fired = []
    sched.schedule(1.0, fired.append, "in")
    sched.schedule(5.0, fired.append, "out")
    sched.run(until=2.0)
    assert fired == ["in"]
    assert sched.now == 2.0


def test_event_at_exactly_until_fires():
    sched = EventScheduler()
    fired = []
    sched.schedule(2.0, fired.append, "edge")
    sched.run(until=2.0)
    assert fired == ["edge"]


def test_run_resumes_after_until():
    sched = EventScheduler()
    fired = []
    sched.schedule(5.0, fired.append, "later")
    sched.run(until=1.0)
    assert fired == []
    sched.run(until=10.0)
    assert fired == ["later"]


def test_cancelled_event_does_not_fire():
    sched = EventScheduler()
    fired = []
    event = sched.schedule(1.0, fired.append, "x")
    event.cancel()
    sched.run()
    assert fired == []


def test_cancel_is_idempotent():
    sched = EventScheduler()
    event = sched.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sched.run()


def test_negative_delay_rejected():
    sched = EventScheduler()
    with pytest.raises(ValueError):
        sched.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sched = EventScheduler()
    fired = []
    sched.schedule(1.0, lambda: sched.schedule_at(4.0, fired.append, "abs"))
    sched.run()
    assert fired == ["abs"]


def test_events_scheduled_during_run_execute():
    sched = EventScheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sched.schedule(1.0, chain, n + 1)

    sched.schedule(0.0, chain, 0)
    sched.run()
    assert fired == [0, 1, 2, 3]
    assert sched.now == 3.0


def test_step_returns_false_when_empty():
    sched = EventScheduler()
    assert sched.step() is False
    sched.schedule(1.0, lambda: None)
    assert sched.step() is True
    assert sched.step() is False


def test_event_repr_shows_time_and_state():
    sched = EventScheduler()
    event = sched.schedule(1.5, sched.run)
    assert "1.5" in repr(event) and "pending" in repr(event)
    event.cancel()
    assert "cancelled" in repr(event)


def test_max_events_bounds_execution():
    sched = EventScheduler()
    fired = []

    def loop():
        fired.append(sched.now)
        sched.schedule(1.0, loop)

    sched.schedule(0.0, loop)
    sched.run(max_events=5)
    assert len(fired) == 5


def test_max_events_counts_dispatched_not_drained():
    # Regression: ``run(max_events=N)`` bounds *dispatched callbacks*.
    # Cancelled events drained from the queue on the way must not eat
    # into the budget (the old loop counted every pop, so a burst of
    # cancellations could stall a bounded run before it fired anything).
    sched = EventScheduler()
    fired = []
    doomed = [sched.schedule(0.5, fired.append, "dead") for _ in range(5)]
    for event in doomed:
        event.cancel()
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(2.0, fired.append, "b")
    sched.schedule(3.0, fired.append, "c")
    sched.run(max_events=2)
    assert fired == ["a", "b"]
    assert sched.now == 2.0


def test_max_events_zero_fires_nothing():
    sched = EventScheduler()
    fired = []
    sched.schedule(1.0, fired.append, "x")
    sched.run(max_events=0)
    assert fired == []
    assert sched.pending_count() == 1


def test_peek_time_skips_cancelled():
    sched = EventScheduler()
    first = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    first.cancel()
    assert sched.peek_time() == 2.0


def test_pending_count_excludes_cancelled():
    sched = EventScheduler()
    keep = sched.schedule(1.0, lambda: None)
    drop = sched.schedule(2.0, lambda: None)
    drop.cancel()
    assert sched.pending_count() == 1
    keep.cancel()
    assert sched.pending_count() == 0


def test_zero_delay_event_fires_at_now():
    sched = EventScheduler()
    fired = []
    sched.schedule(1.0, lambda: sched.schedule(0.0, fired.append, sched.now))
    sched.run()
    assert fired == [1.0]


def test_epoch_increments_once_per_dispatched_event():
    sched = EventScheduler()
    seen = []
    for _ in range(3):
        sched.schedule(1.0, lambda: seen.append(sched.epoch))
    assert sched.epoch == 0
    sched.run()
    # Incremented *before* each callback: every event sees a distinct
    # value and no two events share one (the spatial index keys on this).
    assert seen == [1, 2, 3]
    assert sched.epoch == 3


def test_epoch_skips_cancelled_events():
    sched = EventScheduler()
    fired = []
    sched.schedule(1.0, fired.append, "a")
    dropped = sched.schedule(2.0, fired.append, "b")
    sched.schedule(3.0, fired.append, "c")
    dropped.cancel()
    sched.run()
    assert fired == ["a", "c"]
    assert sched.epoch == 2


def test_simulator_exposes_event_epoch():
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    seen = []
    sim.schedule(0.5, lambda: seen.append(sim.event_epoch))
    sim.schedule(0.5, lambda: seen.append(sim.event_epoch))
    sim.run(until=1.0)
    assert seen == [1, 2]  # same time, distinct epochs
