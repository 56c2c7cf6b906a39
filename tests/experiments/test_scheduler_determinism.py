"""Acceptance: the scheduler is observationally inert, for every protocol
in the registry.

Sibling of ``test_index_determinism.py``, holding the event kernel to the
same bar the spatial index met: a fixed-seed churn scenario (crash +
reboot + blackout faults over RandomWaypoint motion, invariant monitor
on) must produce byte-identical metric rows — and byte-identical trace
artifacts — on the default :class:`~repro.sim.events.CalendarScheduler`
and on the reference :class:`~repro.sim.events.EventScheduler`.
"""

import json
import pathlib

import pytest

from repro.exec.worker import run_trial_payload
from repro.experiments.scenario import PROTOCOLS, Scenario, ScenarioConfig
from repro.faults import FaultPlan, LinkBlackout, NodeCrash, NodeReboot
from repro.obs import trace_header, write_trace
from repro.sim import CalendarScheduler, EventScheduler


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


def _row(config, scheduler):
    report = Scenario(config, scheduler=scheduler).run()
    return json.dumps(report.as_dict(), sort_keys=True)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_heap_and_calendar_rows_byte_identical(protocol):
    config = _config(protocol)
    assert _row(config, EventScheduler) == _row(config, CalendarScheduler)


def test_trace_artifacts_byte_identical_across_backends(tmp_path):
    # Trace files are deterministic (repro.obs.writer), so they extend
    # row identity down to the full event stream.  The artifact a
    # campaign worker writes (default kernel) must equal, header
    # included, the one the reference heap produces for the same config.
    outcome = run_trial_payload({
        "config": _config("aodv").to_dict(),
        "trace": str(tmp_path / "calendar.trace.jsonl"),
    })
    assert outcome["ok"], outcome.get("error")
    calendar = pathlib.Path(outcome["trace"]).read_bytes()

    scenario = Scenario(_config("aodv").replaced(trace=True),
                        scheduler=EventScheduler)
    scenario.run()
    heap_path = tmp_path / "heap.trace.jsonl"
    write_trace(heap_path, scenario.trace, header=trace_header(
        config=scenario.config,
        destinations=sorted(scenario.traffic.destinations_used())))
    assert heap_path.read_bytes() == calendar
