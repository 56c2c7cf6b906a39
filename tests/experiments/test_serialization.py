"""ScenarioConfig to_dict/from_dict: the stable wire/cache format."""

import json

import pytest

from repro.experiments.scenario import (
    ConfigSerializationError,
    ScenarioConfig,
)
from repro.net import MacConfig
from repro.protocols import DsrConfig


def test_roundtrip_defaults():
    config = ScenarioConfig()
    clone = ScenarioConfig.from_dict(config.to_dict())
    assert clone.to_dict() == config.to_dict()


def test_roundtrip_preserves_every_scalar_field():
    config = ScenarioConfig(
        protocol="aodv", num_nodes=24, width=1000.0, height=400.0,
        num_flows=5, rate=2.0, packet_size=256, mean_flow_length=50.0,
        duration=120.0, pause_time=30.0, min_speed=0.5, max_speed=10.0,
        transmission_range=250.0, gray_zone=25.0, seed=42,
        loop_check=True, warmup=2.0,
    )
    clone = ScenarioConfig.from_dict(config.to_dict())
    for field in ScenarioConfig.SCALAR_FIELDS:
        assert getattr(clone, field) == getattr(config, field), field


def test_roundtrip_nested_configs():
    config = ScenarioConfig(
        protocol="dsr",
        protocol_config=DsrConfig(cache_lifetime=30.0, max_salvage_count=5),
        mac_config=MacConfig(retry_limit=4),
    )
    clone = ScenarioConfig.from_dict(config.to_dict())
    assert isinstance(clone.protocol_config, DsrConfig)
    assert clone.protocol_config.cache_lifetime == 30.0
    assert clone.protocol_config.max_salvage_count == 5
    assert isinstance(clone.mac_config, MacConfig)
    assert clone.mac_config.retry_limit == 4
    assert clone.to_dict() == config.to_dict()


def test_to_dict_is_json_serializable():
    config = ScenarioConfig(protocol="dsr", protocol_config=DsrConfig())
    dumped = json.dumps(config.to_dict(), sort_keys=True)
    assert ScenarioConfig.from_dict(json.loads(dumped)).to_dict() == config.to_dict()


def test_to_dict_rejects_callable_config_fields():
    from repro.core import LdrConfig

    config = ScenarioConfig(
        protocol="ldr", protocol_config=LdrConfig(link_cost=lambda a: 1.0),
    )
    with pytest.raises(ConfigSerializationError) as err:
        config.to_dict()
    assert "link_cost" in str(err.value)


def test_from_dict_rejects_unknown_fields():
    data = ScenarioConfig().to_dict()
    data["bogus"] = 1
    with pytest.raises(ValueError) as err:
        ScenarioConfig.from_dict(data)
    assert "bogus" in str(err.value)


def test_from_dict_rejects_unknown_config_type():
    data = ScenarioConfig().to_dict()
    data["protocol_config"] = {"type": "NoSuchConfig", "fields": {}}
    with pytest.raises(ValueError) as err:
        ScenarioConfig.from_dict(data)
    assert "NoSuchConfig" in str(err.value)
