"""Unit tests for the multi-trial runner and campaign helpers."""

import pytest

from repro.analysis import Aggregate
from repro.experiments import ScenarioConfig, run_protocol_comparison, run_trials
from repro.experiments.campaigns import Campaign, node_scenario, pause_sweep


def _tiny(protocol="ldr"):
    return ScenarioConfig(protocol=protocol, num_nodes=10, width=800.0,
                          height=300.0, num_flows=2, duration=8.0,
                          pause_time=0.0, seed=5)


def test_run_trials_aggregates_all_metrics():
    results = run_trials(_tiny(), trials=2)
    assert "delivery_ratio" in results
    assert isinstance(results["delivery_ratio"], Aggregate)
    assert len(results["delivery_ratio"].values) == 2
    assert 0.0 <= results["delivery_ratio"].mean <= 1.0


def test_run_trials_uses_distinct_seeds():
    results = run_trials(_tiny(), trials=3)
    values = results["mean_latency"].values
    assert len(set(values)) > 1  # different seeds, different runs


def test_protocol_comparison_shape():
    results = run_protocol_comparison(_tiny(), ["ldr", "aodv"], trials=1)
    assert set(results) == {"ldr", "aodv"}
    for metrics in results.values():
        assert "network_load" in metrics


def test_node_scenario_terrains():
    small = node_scenario(50, 10, 0, 60.0)
    large = node_scenario(100, 30, 0, 60.0)
    assert (small.width, small.height) == (1500.0, 300.0)
    assert (large.width, large.height) == (2200.0, 600.0)
    assert small.num_flows == 10 and large.num_flows == 30


def test_node_scenario_overrides():
    config = node_scenario(50, 10, 0, 60.0, max_speed=5.0)
    assert config.max_speed == 5.0


def test_pause_sweep_scaled_and_paper():
    scaled = pause_sweep(60.0, paper_scale=False)
    assert scaled[0] == 0 and scaled[-1] == 60
    paper = pause_sweep(900.0, paper_scale=True)
    assert paper == [0, 30, 60, 120, 300, 600, 900]


def test_paper_pause_sweep_stays_inside_a_short_run():
    """Every pause >= the run length is the same static placement, so a
    shorter paper-scale run sweeps the paper's fractions of its length."""
    assert pause_sweep(100.0, paper_scale=True) == [0, 3, 7, 13, 33, 67, 100]
    assert Campaign(paper_scale=True, duration=100.0).pauses()[-1] == 100


def test_campaign_defaults():
    scaled = Campaign()
    assert scaled.duration < 900
    paper = Campaign(paper_scale=True)
    assert paper.duration == 900.0
    assert paper.trials == 10


def test_missing_metric_key_raises_clear_error():
    from repro.experiments.runner import (
        MissingMetricError,
        aggregate_rows,
        extract_metric,
    )

    row = {"delivery_ratio": 1.0}
    with pytest.raises(MissingMetricError) as err:
        extract_metric(row, "mean_latency")
    message = str(err.value)
    assert "mean_latency" in message
    assert "delivery_ratio" in message  # names what *is* available
    with pytest.raises(MissingMetricError):
        aggregate_rows([row])


def test_missing_metric_error_is_a_keyerror():
    from repro.experiments.runner import MissingMetricError

    assert issubclass(MissingMetricError, KeyError)
