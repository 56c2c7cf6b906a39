"""repro — a full reproduction of *A New Approach to On-Demand Loop-Free
Routing in Ad Hoc Networks* (Garcia-Luna-Aceves, Mosko & Perkins,
PODC 2003).

The package contains:

* the **LDR** protocol (:mod:`repro.core`) — the paper's contribution;
* the **AODV**, **DSR** and **OLSR** baselines (:mod:`repro.protocols`);
* a deterministic discrete-event **wireless simulator**
  (:mod:`repro.sim`, :mod:`repro.net`, :mod:`repro.mobility`,
  :mod:`repro.traffic`) standing in for GloMoSim/QualNet;
* **metrics** and an **experiment harness** regenerating every table and
  figure of the paper's evaluation (:mod:`repro.metrics`,
  :mod:`repro.experiments`).

Quickstart::

    from repro import ScenarioConfig, run_scenario

    report = run_scenario(ScenarioConfig(
        protocol="ldr", num_nodes=50, num_flows=10, duration=60.0,
        pause_time=0.0, seed=7,
    ))
    print(report.delivery_ratio, report.mean_latency)
"""

from repro.core import LdrConfig, LdrProtocol
from repro.exec import CampaignEngine, ResultCache
from repro.experiments import (
    PROTOCOLS,
    ScenarioConfig,
    build_scenario,
    run_protocol_comparison,
    run_scenario,
    run_trials,
)
from repro.metrics import MetricsCollector, RunReport
from repro.mobility import RandomWaypoint, StaticPlacement
from repro.net import Node, WirelessChannel
from repro.protocols import (
    AodvConfig,
    AodvProtocol,
    DsrConfig,
    DsrProtocol,
    OlsrConfig,
    OlsrProtocol,
)
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "AodvConfig",
    "AodvProtocol",
    "CampaignEngine",
    "DsrConfig",
    "DsrProtocol",
    "LdrConfig",
    "LdrProtocol",
    "MetricsCollector",
    "Node",
    "OlsrConfig",
    "OlsrProtocol",
    "PROTOCOLS",
    "RandomWaypoint",
    "ResultCache",
    "RunReport",
    "ScenarioConfig",
    "Simulator",
    "StaticPlacement",
    "WirelessChannel",
    "build_scenario",
    "run_protocol_comparison",
    "run_scenario",
    "run_trials",
]
