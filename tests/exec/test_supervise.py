"""Retry policy: deterministic backoff, quarantine, retry identity."""

import json
from concurrent.futures import Future

import repro.exec.engine as engine_mod
import repro.exec.supervise as supervise
import repro.exec.worker as worker_mod
from repro.exec.engine import CampaignEngine
from repro.exec.supervise import (
    BACKOFF_CAP,
    RetryPolicy,
    backoff_delay,
    stall_budget,
)
from repro.experiments.scenario import ScenarioConfig


def _config(seed=1):
    return ScenarioConfig(num_nodes=8, num_flows=2, duration=5.0, seed=seed)


# -- backoff -----------------------------------------------------------


def test_backoff_is_deterministic_per_key_and_attempt():
    key = "ab" * 32
    for attempt in (2, 3, 4):
        assert backoff_delay(key, attempt, 0.1) == \
            backoff_delay(key, attempt, 0.1)
    # Different trials get different jitter (decorrelated retry storms).
    assert backoff_delay("ab" * 32, 2, 0.1) != \
        backoff_delay("cd" * 32, 2, 0.1)


def test_backoff_grows_exponentially_and_caps():
    key = "ef" * 32
    d2 = backoff_delay(key, 2, 0.1)
    d5 = backoff_delay(key, 5, 0.1)
    assert 0.075 <= d2 <= 0.125  # base * U[0.75, 1.25)
    assert d5 > d2  # 2^3 growth dwarfs jitter wiggle
    assert backoff_delay(key, 30, 0.1) == BACKOFF_CAP  # cap wins eventually


def test_backoff_disabled_cases():
    assert backoff_delay("ab", 1, 0.1) == 0.0  # first attempt
    assert backoff_delay("ab", 5, 0.0) == 0.0  # base 0 = off
    assert backoff_delay(None, 5, 0.1) >= 0.0  # keyless trials work


def test_stall_budget_derivation():
    assert stall_budget(None) is None  # can't tell slow from wedged
    assert stall_budget(10.0) == 50.0  # 2*deadline + slack


class _WedgedPool:
    """A ProcessPoolExecutor stand-in whose futures never resolve, as if
    every worker hung where the in-worker deadline cannot reach it."""

    def __init__(self, max_workers=None, mp_context=None):
        self.max_workers = max_workers

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def submit(self, fn, *args, **kwargs):
        return Future()


def test_wedged_worker_is_declared_stalled_then_fails(monkeypatch):
    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", _WedgedPool)
    monkeypatch.setattr(supervise, "STALL_SLACK", 0.0)
    engine = CampaignEngine(jobs=2, timeout=0.05)  # stall budget 0.1 s
    result = engine.run([_config()])
    trial = result.trials[0]
    assert result.failed == 1
    assert trial.attempts == 2  # the stall was retried once
    assert trial.error.startswith("stalled")
    stalls = [w for w in engine.warnings if "stalled" in w]
    assert len(stalls) == 2


# -- policy ------------------------------------------------------------


def test_retry_policy_classic_vs_quarantine_ceilings():
    classic = RetryPolicy(retries=2)
    assert classic.max_attempts == 3
    assert not classic.quarantines
    assert classic.exhausted(3) and not classic.exhausted(2)

    quarantine = RetryPolicy(retries=2, quarantine_after=5)
    assert quarantine.max_attempts == 5  # quarantine_after replaces retries
    assert quarantine.quarantines
    assert quarantine.exhausted(5) and not quarantine.exhausted(4)


def test_quarantine_reports_without_failing_the_campaign(monkeypatch):
    real = worker_mod.run_scenario

    def poisoned(config):
        if config.seed == 2:
            raise RuntimeError("poison trial")
        return real(config)

    monkeypatch.setattr(worker_mod, "run_scenario", poisoned)
    engine = CampaignEngine(quarantine_after=2, backoff_base=0.0)
    result = engine.run([_config(1), _config(2), _config(3)])
    assert result.failed == 0  # quarantine is not failure
    quarantined = result.quarantined()
    assert [t.index for t in quarantined] == [1]
    assert quarantined[0].attempts == 2
    assert "poison trial" in quarantined[0].error
    assert result.coverage == 2 / 3
    assert len(result.completed_rows()) == 2
    # Full-row access still refuses to paper over the gap.
    try:
        result.rows()
    except Exception as err:
        assert "quarantined" in str(err)
    else:  # pragma: no cover
        raise AssertionError("rows() must raise under quarantine")


def test_classic_exhaustion_still_fails_the_campaign(monkeypatch):
    def always_broken(config):
        raise RuntimeError("hard failure")

    monkeypatch.setattr(worker_mod, "run_scenario", always_broken)
    result = CampaignEngine(retries=1, backoff_base=0.0).run([_config(1)])
    assert result.failed == 1
    assert not result.quarantined()
    assert result.trials[0].attempts == 2


def test_retries_never_perturb_result_bytes(monkeypatch):
    """The 'exec' stream isolation contract, end to end.

    A trial that fails twice and succeeds on attempt 3 must produce the
    exact bytes of a trial that succeeded immediately: retry scheduling
    (jitter and all) draws only from the 'exec' stream, never from the
    scenario's seeded streams.
    """
    baseline = CampaignEngine().run([_config(7)]).rows()

    real = worker_mod.run_scenario
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] < 3:
            raise RuntimeError("transient")
        return real(config)

    monkeypatch.setattr(worker_mod, "run_scenario", flaky)
    retried = CampaignEngine(retries=2, backoff_base=0.001).run([_config(7)])
    assert retried.trials[0].attempts == 3
    assert json.dumps(retried.rows(), sort_keys=True) == \
        json.dumps(baseline, sort_keys=True)


def test_pool_quarantine_matches_local_quarantine(monkeypatch):
    """Quarantine accounting is identical in pool and local paths."""
    real = worker_mod.run_scenario

    def poisoned(config):
        if config.seed == 2:
            raise RuntimeError("poison trial")
        return real(config)

    monkeypatch.setattr(worker_mod, "run_scenario", poisoned)
    configs = [_config(1), _config(2), _config(3)]
    local = CampaignEngine(quarantine_after=2, backoff_base=0.0).run(configs)
    # jobs>1 exercises the pool loop; the monkeypatch only exists in this
    # process, so fake the pool breaking to force the supervised local
    # path — the accounting under test is the engine's, not the pool's.
    import repro.exec.engine as engine_mod
    from tests.exec.test_broken_pool import _ExplodingPool

    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", _ExplodingPool)
    pooled = CampaignEngine(jobs=2, quarantine_after=2,
                            backoff_base=0.0).run(configs)
    assert [t.quarantined for t in pooled.trials] == \
        [t.quarantined for t in local.trials]
    assert [t.row for t in pooled.trials] == [t.row for t in local.trials]
