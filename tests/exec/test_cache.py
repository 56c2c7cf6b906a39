"""Unit tests for the on-disk trial-result cache and its key scheme."""

import json

import pytest

from repro.core import LdrConfig
from repro.exec.cache import ResultCache, default_cache_dir, trial_key
from repro.experiments.scenario import ConfigSerializationError, ScenarioConfig


def _config(**overrides):
    base = dict(num_nodes=8, num_flows=2, duration=5.0, seed=3)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_trial_key_is_stable():
    assert trial_key(_config()) == trial_key(_config())


def test_trial_key_covers_every_scenario_knob():
    base = trial_key(_config())
    assert trial_key(_config(seed=4)) != base
    assert trial_key(_config(protocol="aodv")) != base
    assert trial_key(_config(pause_time=2.0)) != base


def test_trial_key_covers_protocol_config():
    from repro.protocols import DsrConfig

    base = trial_key(_config(protocol="dsr"))
    tweaked = trial_key(_config(
        protocol="dsr", protocol_config=DsrConfig(cache_lifetime=30.0),
    ))
    assert tweaked != base


def test_trial_key_rejects_live_objects():
    config = _config(protocol_config=LdrConfig(link_cost=lambda a: 1.0))
    with pytest.raises(ConfigSerializationError):
        trial_key(config)


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    key = trial_key(_config())
    row = {"delivery_ratio": 0.5, "mean_latency": 0.001}
    cache.put(key, row, config=_config())
    assert cache.get(key) == row
    assert key in cache
    assert cache.hits == 1


def test_get_missing_is_none(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("0" * 64) is None
    assert cache.misses == 1


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = trial_key(_config())
    cache.put(key, {"delivery_ratio": 1.0})
    path = cache._path(key)
    path.write_text("{not json")
    assert cache.get(key) is None


def test_stats_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    for seed in range(3):
        cache.put(trial_key(_config(seed=seed)), {"x": seed})
    stats = cache.stats()
    assert stats["entries"] == 3
    assert stats["bytes"] > 0
    assert cache.clear() == 3
    assert cache.stats()["entries"] == 0


def test_iter_entries_and_describe(tmp_path):
    cache = ResultCache(tmp_path)
    config = _config()
    cache.put(trial_key(config), {"delivery_ratio": 1.0}, config=config)
    docs = list(cache.iter_entries())
    assert len(docs) == 1
    line = cache.describe_entry(docs[0])
    assert "ldr" in line and "n=8" in line


def test_put_is_atomic_json(tmp_path):
    cache = ResultCache(tmp_path)
    key = trial_key(_config())
    cache.put(key, {"a": 1})
    with open(cache._path(key)) as fh:
        doc = json.load(fh)
    assert doc["key"] == key and doc["row"] == {"a": 1}
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []
