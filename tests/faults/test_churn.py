"""The churn campaign: grids, aggregation, and the rendered table."""

from repro.experiments.campaigns import (
    CHURN_PROTOCOLS,
    Campaign,
    aggregate_churn,
    churn_grid,
    churn_plans,
    format_churn,
    run_grid,
)


def _tiny_campaign(**overrides):
    kw = dict(duration=12.0, trials=1, num_nodes_small=10)
    kw.update(overrides)
    return Campaign(**kw)


def test_churn_plans_have_expected_shapes():
    plans = dict(churn_plans(60.0, 50))
    assert plans["baseline"] is None
    crash = plans["crash"]
    assert all(e.kind == "node_crash" for e in crash)
    assert len(crash) == 5  # ~10% of 50 nodes
    reboot = plans["reboot"]
    kinds = sorted(set(e.kind for e in reboot))
    assert kinds == ["node_crash", "node_reboot"]
    partition = plans["partition"]
    assert partition.reconvergence_bound is not None
    fuzz = plans["fuzz"]
    assert fuzz.events[0].kind == "packet_fuzz"


def test_churn_plans_serialize_and_are_stable():
    for name, plan in churn_plans(60.0, 50):
        if plan is None:
            continue
        again = dict(churn_plans(60.0, 50))[name]
        assert plan.to_dict() == again.to_dict(), name


def test_churn_grid_covers_every_cell_with_monitor_on():
    campaign = _tiny_campaign(trials=2)
    labels, configs = churn_grid(campaign)
    plans = churn_plans(campaign.duration, campaign.num_nodes_small)
    assert len(configs) == len(plans) * len(CHURN_PROTOCOLS) * 2
    assert set(labels) == {(f, p) for f, _ in plans for p in CHURN_PROTOCOLS}
    assert all(c.invariant_check for c in configs)
    seeds = {c.seed for c in configs}
    assert seeds == {1, 2}


def test_churn_table_aggregates_and_renders():
    campaign = _tiny_campaign()
    labels, configs = churn_grid(campaign, protocols=("ldr", "aodv"))
    labels, result, _ = run_grid(campaign, "churn", labels, configs)
    table = aggregate_churn(labels, result.trials)
    assert len(table) == 5 * 2  # five plans x two protocols
    for row in table:
        assert 0.0 <= row["delivery_ratio"] <= 1.0
        assert row["trials"] == 1
    ldr_rows = [r for r in table if r["protocol"] == "ldr"]
    assert all(r["loop_violations"] == 0 for r in ldr_rows)
    rendered = format_churn(table)
    for token in ("baseline", "crash", "reboot", "partition", "fuzz",
                  "ldr", "aodv", "delivery", "invariant"):
        assert token in rendered
