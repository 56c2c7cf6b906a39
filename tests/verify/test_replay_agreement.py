"""Replay-vs-monitor agreement on real churn traces, per protocol.

The conformance contract: for any trace the simulator writes, the
offline :mod:`repro.verify.replay` checker must reach exactly the same
violations (timestamp and kind) the online monitor recorded into the
trace.  Disagreement means one of the two checkers is wrong, and is a
test failure in its own right.
"""

import pytest

from repro.experiments.campaigns import churn_plans
from repro.experiments.scenario import (
    PROTOCOLS,
    ScenarioConfig,
    build_scenario,
)
from repro.obs import trace_header, write_trace
from repro.verify import replay_trace
from repro.verify.counterexamples import verdict_from_breakdown


def churned_trace(tmp_path, protocol, plan_name="reboot", seed=3,
                  gz=False):
    plans = dict(churn_plans(14.0, 10))
    config = ScenarioConfig(
        protocol=protocol, num_nodes=10, num_flows=3, duration=14.0,
        seed=seed, fault_plan=plans[plan_name], invariant_check=True,
        trace=True,
    )
    scenario = build_scenario(config)
    scenario.run()
    name = "%s.trace.jsonl%s" % (protocol, ".gz" if gz else "")
    path = tmp_path / name
    write_trace(path, scenario.trace, header=trace_header(
        config=config,
        destinations=sorted(scenario.traffic.destinations_used()),
    ))
    return path, scenario


def assert_replay_agrees(tmp_path, protocol, plan_name="reboot", seed=3):
    path, scenario = churned_trace(tmp_path, protocol, plan_name=plan_name,
                                   seed=seed)
    result = replay_trace(path)
    assert result.truncated is False
    assert result.agreement is True, (
        "offline replay diverged from the online monitor:\n"
        "  replay  : %r\n  monitor : %r"
        % (sorted((t, k) for t, k, _ in result.violations),
           sorted(result.recorded)))
    # The offline verdict equals what the monitor's own histogram implies.
    online = {k: v for k, v in scenario.monitor.summary().items()
              if k != "reconvergence"}
    assert result.verdict == verdict_from_breakdown(online)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_replay_agrees_with_monitor_under_churn(tmp_path, protocol):
    assert_replay_agrees(tmp_path, protocol)


@pytest.mark.xfail(strict=True,
                   reason="TORA's successor changes without a route event")
def test_tora_partition_replay_misses_silent_successor_change(tmp_path):
    """Replay agreement needs every successor change to be notified.

    TORA's ``successor()`` follows neighbour heights that change without
    a table-change notification.  Under this plan the monitor records
    2301 loop violations and the replay 2299: the two at t=5.9455 (cycle
    ``[6, 8, 6]``) come from a successor change no ``route`` event shows.
    """
    assert_replay_agrees(tmp_path, "tora", plan_name="partition", seed=5)


def test_agreement_survives_gzip(tmp_path):
    path, _ = churned_trace(tmp_path, "ldr", gz=True)
    assert path.suffix == ".gz"
    result = replay_trace(path)
    assert result.agreement is True


@pytest.mark.parametrize("plan_name", ["crash", "partition"])
def test_agreement_across_fault_shapes(tmp_path, plan_name):
    path, _ = churned_trace(tmp_path, "ldr", plan_name=plan_name)
    result = replay_trace(path)
    assert result.agreement is True


def test_dropped_prefix_loop_is_never_certified(tmp_path):
    """Retention cap drops the loop's route events: refuse to certify.

    ce-aodv-1 on AODV forms its loop around t=5.4; a ``newest``-policy
    ring small enough to drop those events leaves a retained suffix with
    no loop evidence.  The only sound verdict for that artifact is
    ``inconclusive`` — an ``immune`` here would silently certify a trace
    that *contains* a loop.
    """
    from collections import deque

    from repro.verify import load_suite

    ce = load_suite()["ce-aodv-1"]
    config = ce.config("aodv", trace=True)
    scenario = build_scenario(config)
    recorder = scenario.trace
    recorder.policy = "newest"
    recorder.max_events = 40
    recorder.events = deque(maxlen=40)
    scenario.run()
    assert scenario.monitor.summary().get("loop")   # the loop DID happen
    assert recorder.truncated

    path = tmp_path / "capped.trace.jsonl"
    write_trace(path, recorder, header=trace_header(
        config=config, destinations=[2]))
    result = replay_trace(path)
    assert result.truncated is True
    assert result.verdict == "inconclusive"
    assert result.agreement is None
    # Header bookkeeping: every event was counted even though most fell
    # out of the ring.
    assert result.header["recorded"] > 40
