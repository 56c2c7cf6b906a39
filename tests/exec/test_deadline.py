"""Portable in-worker deadlines (the SIGALRM replacement)."""

import threading
import time

import repro.exec.deadline as deadline_mod
from repro.exec.deadline import TrialTimeout, call_with_deadline
from repro.exec.worker import run_trial_payload
from repro.experiments.scenario import ScenarioConfig


def test_value_passes_through():
    assert call_with_deadline(lambda: 42, None) == {"ok": True, "value": 42}
    assert call_with_deadline(lambda: 42, 0) == {"ok": True, "value": 42}


def test_exception_is_captured_not_raised():
    def boom():
        raise RuntimeError("kaput")

    outcome = call_with_deadline(boom, None)
    assert outcome["ok"] is False
    assert "kaput" in outcome["error"]

    outcome = call_with_deadline(boom, 5.0)  # threaded path too
    assert outcome["ok"] is False
    assert "kaput" in outcome["error"]


def test_fast_function_beats_its_deadline():
    outcome = call_with_deadline(lambda: "fast", 5.0)
    assert outcome == {"ok": True, "value": "fast"}


def test_deadline_fires_and_returns_promptly():
    started = time.monotonic()
    outcome = call_with_deadline(lambda: time.sleep(30), 0.2)
    elapsed = time.monotonic() - started
    assert outcome["ok"] is False
    assert "timed out" in outcome["error"]
    # join(timeout) + cancel + grace, nowhere near the 30s sleep.
    assert elapsed < 10.0
    # A thread blocked inside a C call (sleep) cannot take the async
    # exception until the call returns, so the overrun is degraded
    # gracefully: reported on time, flagged as uncancelled.
    assert "may still be running" in outcome["warning"]


def test_timeout_is_cancellable_inside_pure_python_loops():
    cancelled = threading.Event()

    def spin():
        try:
            while True:
                sum(range(1000))
        except TrialTimeout:
            cancelled.set()
            raise

    outcome = call_with_deadline(spin, 0.2)
    assert outcome["ok"] is False
    assert cancelled.wait(5.0), "TrialTimeout never landed in the loop"


def test_swallowed_cancellation_is_raised_again():
    # A TrialTimeout that lands inside a gc callback or a finaliser is
    # reported as unraisable and lost there; the trial must still end on
    # a later one rather than finish inside the grace and count as a pass.
    swallowed = threading.Event()

    def shrugs_once():
        try:
            while True:
                sum(range(1000))
        except TrialTimeout:
            swallowed.set()
        stop = time.monotonic() + 0.5
        while time.monotonic() < stop:
            sum(range(1000))
        return "late"

    outcome = call_with_deadline(shrugs_once, 0.1)
    assert swallowed.is_set()
    assert outcome["ok"] is False
    assert "timed out" in outcome["error"]
    assert "warning" not in outcome


def test_trial_timeout_is_not_an_ordinary_exception():
    # Like KeyboardInterrupt: `except Exception` in trial code must not
    # be able to absorb the async-raised cancellation.
    assert issubclass(TrialTimeout, BaseException)
    assert not issubclass(TrialTimeout, Exception)


def test_broad_except_exception_cannot_swallow_cancellation():
    def stubborn():
        while True:
            try:
                sum(range(1000))
            except Exception:
                pass  # would eat an Exception-derived cancellation

    outcome = call_with_deadline(stubborn, 0.2)
    assert outcome["ok"] is False
    assert "timed out" in outcome["error"]
    # The cancellation escaped the broad handler and ended the thread.
    assert "warning" not in outcome


def test_uncancellable_overrun_carries_explicit_warning(monkeypatch):
    # Simulate a runtime without PyThreadState_SetAsyncExc (or a thread
    # wedged in C): the deadline must still report on time, flagged.
    monkeypatch.setattr(deadline_mod, "_async_raise", lambda ident: False)
    release = threading.Event()
    try:
        outcome = call_with_deadline(lambda: release.wait(30), 0.2)
        assert outcome["ok"] is False
        assert "timed out" in outcome["error"]
        assert "hard cancellation is unavailable" in outcome["warning"]
    finally:
        release.set()  # do not leak a 30s thread into other tests


def test_worker_timeout_surfaces_as_failed_outcome():
    config = ScenarioConfig(num_nodes=40, num_flows=10, duration=600.0,
                            seed=1)
    outcome = run_trial_payload({"config": config.to_dict(), "timeout": 0.2})
    assert outcome["ok"] is False
    assert "timed out" in outcome["error"]
    assert outcome["worker"] > 0
