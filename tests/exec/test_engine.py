"""Engine behaviour: parity, caching, retry, timeout, progress."""

import pytest

from repro.core import LdrConfig
from repro.exec import worker
from repro.exec.cache import ResultCache
from repro.exec.engine import CampaignEngine, CampaignError
from repro.experiments.scenario import ConfigSerializationError, ScenarioConfig


def _configs(n=3, **overrides):
    base = dict(num_nodes=8, num_flows=2, duration=5.0)
    base.update(overrides)
    return [ScenarioConfig(seed=1 + i, **base) for i in range(n)]


def test_serial_engine_matches_direct_run():
    from repro.experiments.scenario import run_scenario

    configs = _configs(2)
    rows = CampaignEngine().run_rows(configs)
    direct = [run_scenario(c).as_dict() for c in configs]
    assert rows == direct


def test_parallel_rows_bit_identical_to_serial():
    configs = _configs(4)
    serial = CampaignEngine().run_rows(configs)
    parallel = CampaignEngine(jobs=2).run_rows(configs)
    assert parallel == serial


def test_order_preserved_with_many_jobs():
    configs = _configs(5)
    result = CampaignEngine(jobs=4).run(configs)
    assert [t.index for t in result.trials] == list(range(5))
    assert [t.config.seed for t in result.trials] == [c.seed for c in configs]


def test_cache_replay_executes_nothing(tmp_path):
    configs = _configs(3)
    first = CampaignEngine(cache=ResultCache(tmp_path)).run(configs)
    assert first.executed == 3 and first.cached == 0
    second = CampaignEngine(cache=ResultCache(tmp_path)).run(configs)
    assert second.executed == 0 and second.cached == 3
    assert [t.row for t in second.trials] == [t.row for t in first.trials]


def test_cache_shared_between_serial_and_parallel(tmp_path):
    configs = _configs(3)
    serial = CampaignEngine(cache=ResultCache(tmp_path)).run(configs)
    parallel = CampaignEngine(jobs=2, cache=ResultCache(tmp_path)).run(configs)
    assert parallel.cached == 3
    assert [t.row for t in parallel.trials] == [t.row for t in serial.trials]


def test_failed_trial_surfaces_instead_of_raising(monkeypatch):
    def boom(config):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(worker, "run_scenario", boom)
    result = CampaignEngine(retries=1).run(_configs(2))
    assert result.failed == 2
    for trial in result.trials:
        assert trial.attempts == 2  # first try + one retry
        assert "injected failure" in trial.error
    with pytest.raises(CampaignError) as err:
        result.rows()
    assert "injected failure" in str(err.value)


def test_transient_failure_recovers_via_retry(monkeypatch):
    real = worker.run_scenario
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return real(config)

    monkeypatch.setattr(worker, "run_scenario", flaky)
    result = CampaignEngine(retries=1).run(_configs(1))
    assert result.failed == 0
    assert result.trials[0].attempts == 2
    assert result.trials[0].ok


def test_zero_retries_fails_fast(monkeypatch):
    def boom(config):
        raise RuntimeError("no second chances")

    monkeypatch.setattr(worker, "run_scenario", boom)
    result = CampaignEngine(retries=0).run(_configs(1))
    assert result.trials[0].attempts == 1
    assert result.failed == 1


def test_per_trial_timeout_is_a_failure():
    # 60 simulated seconds of a 20-node network cannot finish in 10 ms.
    configs = _configs(1, num_nodes=20, duration=60.0)
    result = CampaignEngine(timeout=0.01, retries=0).run(configs)
    assert result.failed == 1
    assert "timed out" in result.trials[0].error


@pytest.mark.parametrize("jobs", [1, 2])
def test_unserializable_config_is_refused(tmp_path, jobs):
    """A config without a trial key is refused before anything runs."""
    configs = _configs(2)
    configs.append(configs[0].replaced(
        protocol_config=LdrConfig(link_cost=lambda a: 1.0)))
    cache = ResultCache(tmp_path)
    with pytest.raises(ConfigSerializationError, match="link_cost"):
        CampaignEngine(jobs=jobs, cache=cache).run(configs)
    assert cache.stats()["entries"] == 0


def test_progress_callback_sees_final_counts(tmp_path):
    snapshots = []
    configs = _configs(3)
    CampaignEngine(cache=ResultCache(tmp_path),
                   progress=snapshots.append).run(configs)
    assert [s.done for s in snapshots] == [1, 2, 3]
    last = snapshots[-1]
    assert last.total == 3 and last.executed == 3 and last.failed == 0
    assert last.eta == 0.0
    snapshots.clear()
    CampaignEngine(cache=ResultCache(tmp_path),
                   progress=snapshots.append).run(configs)
    assert snapshots[-1].cached == 3


def test_run_trials_through_parallel_engine_matches_serial():
    from repro.experiments.runner import run_trials

    config = ScenarioConfig(num_nodes=8, num_flows=2, duration=5.0, seed=2)
    serial = run_trials(config, trials=3)
    parallel = run_trials(config, trials=3, engine=CampaignEngine(jobs=3))
    for key in serial:
        assert serial[key].values == parallel[key].values
        assert serial[key].mean == parallel[key].mean
