"""Acceptance: the event queue is observationally inert, for every
protocol in the registry.

Sibling of ``test_index_determinism.py``: a fixed-seed churn scenario
(crash + reboot + blackout faults over RandomWaypoint motion, invariant
monitor on) must reproduce, byte for byte, the metric row pinned for each
protocol below.  The pins were written on the calendar queue the binary
heap (:class:`~repro.sim.events.EventScheduler`) replaced, so they hold
the heap to the rows of the queue before it; a change to any protocol's
behaviour shows up here too.  Trace artifacts extend the check to the
full event stream: a campaign worker's artifact must equal an in-process
one.
"""

import hashlib
import json
import pathlib

import pytest

from repro.exec.worker import run_trial_payload
from repro.experiments.scenario import PROTOCOLS, Scenario, ScenarioConfig
from repro.faults import FaultPlan, LinkBlackout, NodeCrash, NodeReboot


def _churn_plan():
    return FaultPlan(events=[
        NodeCrash(2, 3.0),
        NodeReboot(2, 6.5),
        LinkBlackout(0, 1, 2.0, 5.0),
        NodeCrash(5, 7.0),
    ])


def _config(protocol, seed=7):
    return ScenarioConfig(
        protocol=protocol, num_nodes=10, width=1000.0, height=400.0,
        num_flows=2, duration=10.0, pause_time=0.0, warmup=1.0, seed=seed,
        fault_plan=_churn_plan(), invariant_check=True,
    )


def _row(config):
    report = Scenario(config).run()
    return json.dumps(report.as_dict(), sort_keys=True)


#: sha256 of each protocol's calendar row (written by CPython 3.11).
ROW_SHA256 = {
    "aodv": "f0d8db9a1d12f4d0c84d8b8f1b52474d258e2d611c7c3cffc0bb199a8ae80301",
    "dsr": "46894340cc8ea4230168537754273fb7b1c40831eb98d857523dfff60e29ed5d",
    "dsr7": "46894340cc8ea4230168537754273fb7b1c40831eb98d857523dfff60e29ed5d",
    "dual": "52b96c40807a0cc65bad44531769fb07d9a19b9c2fb22fd1e651c1ad46f45c93",
    "ldr": "8b2afa208d10e5e29cbff88ec9041b425562d6e57cc75fefd7cec5a5d8696516",
    "olsr": "79ce00a16d0d893f23e9fd8fc82f959536f8f52630c011bf0c0383279010fe7e",
    "oracle": "d35eaca29a63b5c449b8d249f1f6736df25a82d16496636018c0f9221d9d17f3",
    "roam": "70221de73054b5de9df7020b483993c443f41fbffa58421652c0a21ad67b2936",
    "tora": "c22bfe93221af78e74f805a730a578fe67319a5af869e0aaf4889d51c733fce2",
}


def test_pins_match_the_registry():
    # A protocol added without a pin, or removed with its pin left
    # behind, fails here rather than going unchecked.
    assert set(ROW_SHA256) == set(PROTOCOLS)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_heap_and_calendar_rows_byte_identical(protocol):
    # The heap's row hashes to the digest of the calendar's row.
    digest = hashlib.sha256(_row(_config(protocol)).encode()).hexdigest()
    assert digest == ROW_SHA256[protocol]


def test_trace_artifacts_byte_identical_across_backends(tmp_path):
    # Trace files are deterministic (repro.obs.writer), so they extend
    # row identity down to the full event stream.  The artifact a
    # campaign worker writes must equal, header included, the one an
    # in-process Scenario writes for the same config.
    outcome = run_trial_payload({
        "config": _config("aodv").to_dict(),
        "trace": str(tmp_path / "worker.trace.jsonl"),
    })
    assert outcome["ok"], outcome.get("error")
    worker = pathlib.Path(outcome["trace"]).read_bytes()

    scenario = Scenario(_config("aodv").replaced(trace=True))
    scenario.run()
    local_path = tmp_path / "local.trace.jsonl"
    scenario.write_trace(local_path)
    assert local_path.read_bytes() == worker
