"""Shard plans: deterministic partition, meta registration, claim tokens."""

import json

import pytest

from repro.exec.cache import trial_key
from repro.exec.manifest import CampaignManifest, campaign_paths
from repro.exec.shard import (
    CLAIMDONE,
    CLAIMED,
    TODO,
    ShardPlan,
    ShardPlanError,
    campaign_fingerprint,
    claim_shard,
    claim_states,
    claims_dir,
    init_claims,
    reclaim_shard,
    release_shard,
    shard_dir,
    start_shard,
)
from repro.experiments.scenario import ScenarioConfig


def _configs(n=12):
    return [ScenarioConfig(num_nodes=8, num_flows=2, duration=5.0,
                           seed=1 + i) for i in range(n)]


# -- partition function ------------------------------------------------


def test_assignment_covers_every_config_exactly_once():
    configs = _configs(12)
    plan = ShardPlan(3)
    buckets = plan.assign(configs)
    assert len(buckets) == 3
    seen = sorted(i for bucket in buckets for i, _ in bucket)
    assert seen == list(range(12))
    # submission order preserved within each shard
    for bucket in buckets:
        indices = [i for i, _ in bucket]
        assert indices == sorted(indices)


def test_partition_is_a_pure_function_of_the_key():
    """Two processes with the same plan must agree with no coordination."""
    configs = _configs(8)
    plan_a, plan_b = ShardPlan(4), ShardPlan(4)
    for config in configs:
        key = trial_key(config)
        assert plan_a.shard_of(key) == plan_b.shard_of(key)


def test_single_shard_plan_owns_everything():
    plan = ShardPlan(1)
    for config in _configs(5):
        assert plan.shard_of(trial_key(config)) == 0


def test_plan_validation():
    with pytest.raises(ShardPlanError):
        ShardPlan(0)


def test_plan_round_trips_and_rejects_foreign_schema():
    plan = ShardPlan(5)
    assert ShardPlan.from_dict(plan.to_dict()) == plan
    bad = dict(plan.to_dict(), schema=99)
    with pytest.raises(ShardPlanError):
        ShardPlan.from_dict(bad)
    with pytest.raises(ShardPlanError):
        ShardPlan.from_dict({"shards": 2})


def test_fingerprint_is_order_sensitive():
    keys = [trial_key(c) for c in _configs(3)]
    assert campaign_fingerprint(keys) == campaign_fingerprint(list(keys))
    assert campaign_fingerprint(keys) != \
        campaign_fingerprint(list(reversed(keys)))


# -- shard campaign directories ----------------------------------------


def test_start_shard_registers_plan_and_fingerprint(tmp_path):
    configs = _configs(6)
    plan = ShardPlan(2)
    manifest, engine, subset = start_shard(tmp_path, configs, plan, 0,
                                           name="unit")
    manifest.close()
    assert [c for _, c in subset] == \
        [c for i, c in plan.assign(configs)[0]]

    path, _, _ = campaign_paths(shard_dir(tmp_path, 0))
    loaded = CampaignManifest.load(path)
    shard_info = loaded.header["meta"]["shard"]
    assert shard_info["shards"] == 2
    assert "mode" not in shard_info
    assert shard_info["index"] == 0
    assert shard_info["total"] == 6
    assert shard_info["indices"] == [i for i, _ in subset]
    assert shard_info["fingerprint"] == campaign_fingerprint(
        [trial_key(c) for c in configs])


def test_start_shard_rejects_bad_index_and_restart(tmp_path):
    configs = _configs(4)
    plan = ShardPlan(2)
    with pytest.raises(ShardPlanError):
        start_shard(tmp_path, configs, plan, 2)
    manifest, _, _ = start_shard(tmp_path, configs, plan, 0)
    manifest.close()
    with pytest.raises(FileExistsError):
        start_shard(tmp_path, configs, plan, 0)


# -- claim tokens -------------------------------------------------------


def test_claim_lifecycle(tmp_path):
    plan = ShardPlan(3)
    assert init_claims(tmp_path, plan) == 3
    assert init_claims(tmp_path, plan) == 0  # idempotent
    assert claim_states(tmp_path, plan)[TODO] == [0, 1, 2]

    assert claim_shard(tmp_path, plan) == 0
    assert claim_shard(tmp_path, plan) == 1
    states = claim_states(tmp_path, plan)
    assert states[CLAIMED] == [0, 1] and states[TODO] == [2]

    assert release_shard(tmp_path, 0, done=True)
    assert release_shard(tmp_path, 1, done=False)  # hand back
    states = claim_states(tmp_path, plan)
    assert states[CLAIMDONE] == [0] and states[TODO] == [1, 2]

    # The handed-back shard is claimable again; done ones never are.
    assert claim_shard(tmp_path, plan) == 1
    assert release_shard(tmp_path, 1, done=True)
    assert claim_shard(tmp_path, plan) == 2
    assert release_shard(tmp_path, 2, done=True)
    assert claim_shard(tmp_path, plan) is None


def test_release_without_claim_reports_false(tmp_path):
    plan = ShardPlan(2)
    init_claims(tmp_path, plan)
    assert not release_shard(tmp_path, 0, done=True)  # never claimed
    assert not reclaim_shard(tmp_path, 0)


def test_reclaim_requeues_a_dead_claimants_shard(tmp_path):
    plan = ShardPlan(2)
    init_claims(tmp_path, plan)
    assert claim_shard(tmp_path, plan) == 0
    # claimant SIGKILLed: token stuck in .claimed, journal untouched
    assert reclaim_shard(tmp_path, 0)
    assert claim_states(tmp_path, plan)[TODO] == [0, 1]
    assert claim_shard(tmp_path, plan) == 0


def test_claim_token_records_the_plan(tmp_path):
    plan = ShardPlan(4)
    init_claims(tmp_path, plan)
    token = claims_dir(tmp_path) / "shard-000.todo"
    recorded = json.loads(token.read_text().strip())
    assert ShardPlan.from_dict(recorded) == plan
