"""Graceful degradation when the process pool dies (BrokenProcessPool).

A worker that segfaults or gets OOM-killed takes the whole
``ProcessPoolExecutor`` down with it.  The engine must (a) finish every
unsettled trial in-process, (b) tell the user — through the progress
reporter and ``engine.warnings`` — that it degraded, and (c) not charge
the lost in-flight attempts against any trial's retry budget.
"""

import io
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import repro.exec.engine as engine_mod
from repro.exec import worker
from repro.exec.engine import CampaignEngine
from repro.exec.progress import Progress, console_progress, format_progress
from repro.experiments.scenario import ScenarioConfig


class _ExplodingPool:
    """Mimics a ProcessPoolExecutor whose workers all died at once."""

    def __init__(self, max_workers=None, mp_context=None, **kwargs):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died hard"))
        return future


def _configs(n=3):
    return [ScenarioConfig(num_nodes=8, num_flows=2, duration=5.0,
                           seed=1 + i) for i in range(n)]


def test_broken_pool_finishes_in_process_and_warns(monkeypatch):
    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", _ExplodingPool)
    snapshots = []
    engine = CampaignEngine(jobs=2, progress=snapshots.append)
    result = engine.run(_configs(3))
    assert result.failed == 0
    assert all(t.ok for t in result.trials)
    # The warning is user-visible both on the engine and in the stream
    # of progress snapshots (as a note that survives status overwrites).
    # The pool is respawned once before the engine degrades, so two
    # breakdown warnings are expected: respawn, then in-process fallback.
    assert len(engine.warnings) == 2
    assert "respawning pool" in engine.warnings[0]
    assert "finishing 3 trial(s) in-process" in engine.warnings[1]
    assert all("worker pool broke" in w for w in engine.warnings)
    notes = [s.note for s in snapshots if s.note]
    assert any("worker pool broke" in note for note in notes)


def test_broken_pool_rows_match_serial(monkeypatch):
    serial = CampaignEngine().run_rows(_configs(3))
    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", _ExplodingPool)
    degraded = CampaignEngine(jobs=4).run_rows(_configs(3))
    assert degraded == serial


def test_lost_pool_attempts_do_not_consume_retry_budget(monkeypatch):
    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", _ExplodingPool)
    real = worker.run_scenario
    failures = set()

    def flaky(config):
        # Every trial's FIRST in-process attempt fails; the retry lands.
        if config.seed not in failures:
            failures.add(config.seed)
            raise RuntimeError("transient post-breakdown failure")
        return real(config)

    monkeypatch.setattr(worker, "run_scenario", flaky)
    result = CampaignEngine(jobs=2, retries=1).run(_configs(2))
    # Each trial burned one pool attempt (lost with the pool, refunded),
    # then one failed local attempt, then its single allowed retry.  If
    # the pool attempt were charged, the budget would already be spent
    # and both trials would surface as failures.
    assert result.failed == 0
    for trial in result.trials:
        assert trial.ok
        assert trial.attempts == 2


class _Terminal(io.StringIO):
    """A stream that says it is a terminal."""

    def isatty(self):
        return True


def test_console_progress_renders_note_on_own_line():
    stream = io.StringIO()
    callback = console_progress(stream)
    callback(Progress(total=3, done=1, executed=1, cached=0, failed=0,
                      elapsed=1.0, note="worker pool broke; degrading"))
    assert stream.getvalue() == "warning: worker pool broke; degrading\n"


def test_console_progress_draws_status_line_only_on_a_terminal():
    snapshot = Progress(total=3, done=1, executed=1, cached=0, failed=0,
                        elapsed=1.0)
    terminal, pipe = _Terminal(), io.StringIO()
    console_progress(terminal)(snapshot)
    console_progress(pipe)(snapshot)
    assert terminal.getvalue() == format_progress(snapshot) + "\r"
    assert pipe.getvalue() == ""
    noted = Progress(total=3, done=3, executed=3, cached=0, failed=0,
                     elapsed=2.0, note="trial #2 stalled")
    terminal = _Terminal()
    console_progress(terminal)(noted)
    assert terminal.getvalue() == ("\nwarning: trial #2 stalled\n"
                                   + format_progress(noted) + "\n")
