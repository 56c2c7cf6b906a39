"""Unit tests for the restartable one-shot timer."""

import pytest

from repro.sim import Simulator, Timer


def test_timer_fires_after_delay():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]


def test_timer_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(1))
    timer.start(2.0)
    timer.cancel()
    sim.run()
    assert fired == []


def test_timer_restart_replaces_expiry():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.schedule(1.0, lambda: timer.restart(5.0))
    sim.run()
    assert fired == [6.0]


def test_double_start_raises():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    with pytest.raises(RuntimeError):
        timer.start(1.0)


def test_armed_and_expires_at():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    assert not timer.armed
    assert timer.expires_at is None
    timer.start(3.0)
    assert timer.armed
    assert timer.expires_at == 3.0
    sim.run()
    assert not timer.armed


def test_timer_can_start_again_after_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.run()
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0]


def test_cancel_idle_timer_is_noop():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.cancel()
    assert not timer.armed


def test_negative_start_and_restart_rejected():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    with pytest.raises(ValueError):
        timer.start(-1.0)
    timer.start(2.0)
    with pytest.raises(ValueError):
        timer.restart(-1.0)
    # A rejected restart disarms rather than leaving a stale deadline.
    assert not timer.armed


def test_restart_storm_keeps_one_queued_entry(scheduler_cls):
    # The whole point of the deferred re-arm: 10^4 deadline extensions
    # leave exactly ONE entry in the queue (the carrier), not 10^4
    # cancelled tombstones for the dispatch loop to drain later.
    sim = Simulator(scheduler=scheduler_cls)
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    for i in range(1, 10_001):
        timer.restart(1.0 + i * 1e-4)
    deadline = 1.0 + 10_000 * 1e-4
    assert sim.scheduler.queued_count() == 1
    assert timer.expires_at == deadline
    sim.run()
    assert fired == [deadline]


def test_restart_to_earlier_deadline_requeues(scheduler_cls):
    sim = Simulator(scheduler=scheduler_cls)
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(5.0)
    timer.restart(1.0)
    sim.run()
    assert fired == [1.0]


def test_expires_at_tracks_true_deadline_past_carrier_expiry():
    # After a deferred restart the queued event is only a carrier; the
    # observable deadline must be the real one, before and after the
    # carrier fires (invisibly) and re-queues itself.
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.run(until=0.5)
    timer.restart(3.5)  # deadline 4.0; carrier still queued at 1.0
    assert timer.armed and timer.expires_at == 4.0
    sim.run(until=2.0)  # carrier fired and re-queued; nothing observable
    assert fired == []
    assert timer.armed and timer.expires_at == 4.0
    sim.run()
    assert fired == [4.0]
    assert not timer.armed and timer.expires_at is None


def test_cancel_after_deferred_restart_silences_carrier():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.restart(4.0)
    timer.cancel()
    sim.run()
    assert fired == []
    # ...and cancelling after the carrier already re-queued works too
    # (a crashed node disarming its timers mid-simulation).
    timer.start(1.0)
    timer.restart(4.0)
    sim.run(until=sim.now + 2.0)  # carrier fires, re-queues at deadline
    timer.cancel()
    sim.run()
    assert fired == []
    assert not timer.armed


def test_timer_restarts_cleanly_after_cancel_and_after_firing():
    # Crash/reboot lifecycle: disarm, then re-arm later from scratch.
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(3.0)
    timer.cancel()
    assert not timer.armed and timer.expires_at is None
    timer.start(1.0)  # start (not restart) is legal again once disarmed
    sim.run()
    assert fired == [1.0]
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0]
