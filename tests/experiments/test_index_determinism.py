"""Acceptance: the spatial index is observationally inert, for every
protocol in the registry.

A fixed-seed churn scenario (crash + reboot + blackout faults over
RandomWaypoint motion, invariant monitor on) must produce byte-identical
metric rows on the default :class:`~repro.net.spatial.GridIndex` and on
the reference :class:`~repro.net.spatial.ScanIndex` — same RNG draw
order, same event interleaving, same counters.
"""

import json

import pytest

from repro.experiments.scenario import PROTOCOLS, Scenario, ScenarioConfig
from repro.faults import FaultPlan, LinkBlackout, NodeCrash, NodeReboot
from repro.net import GridIndex, ScanIndex


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


def _row(config, index):
    report = Scenario(config, index=index).run()
    return json.dumps(report.as_dict(), sort_keys=True)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_grid_and_scan_rows_byte_identical(protocol):
    config = _config(protocol)
    assert _row(config, GridIndex) == _row(config, ScanIndex)
