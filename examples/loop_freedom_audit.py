#!/usr/bin/env python
"""Audit LDR's loop-freedom claim (Theorem 4) empirically.

    python examples/loop_freedom_audit.py [--seeds N]

Installs a strict invariant monitor that walks the union of all routing
tables after *every* table change, verifying (a) the successor graph is
acyclic for every destination, (b) the ordering criterion of Theorem 2
holds: sequence numbers are non-decreasing and feasible distances
strictly decreasing along successor paths, and (c) no node holds a
sequence label its destination never issued.  Then runs heavily mobile
scenarios and adversarial teleport churn.  Any violation raises
immediately.
"""

import argparse
import random

from repro import ScenarioConfig, build_scenario
from repro.core import LdrProtocol
from repro.faults import InvariantMonitor
from repro.metrics import MetricsCollector
from repro.mobility import StaticPlacement
from repro.net import Node, WirelessChannel
from repro.sim import Simulator


def mobile_audit(seed):
    scenario = build_scenario(ScenarioConfig(
        protocol="ldr", num_nodes=20, width=1000.0, height=300.0,
        num_flows=5, duration=30.0, pause_time=0.0, max_speed=25.0,
        seed=seed,
    ))
    monitor = InvariantMonitor(scenario.sim, scenario.protocols,
                               strict=True).install()
    scenario.run()
    return monitor.checks_run


def teleport_audit(seed):
    sim = Simulator(seed=seed)
    placement = StaticPlacement.grid(4, 4, spacing=200.0)
    channel = WirelessChannel(sim, placement)
    metrics = MetricsCollector(sim)
    nodes, protocols = {}, {}
    for node_id in placement.node_ids():
        node = Node(sim, node_id, channel, metrics=metrics)
        protocol = LdrProtocol(sim, node, metrics=metrics)
        node.install_routing(protocol)
        nodes[node_id] = node
        protocols[node_id] = protocol
    monitor = InvariantMonitor(sim, protocols, strict=True).install()

    rng = random.Random(seed)
    pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(6)]
    for step in range(8):
        for src, dst in pairs:
            if src != dst:
                nodes[src].send_data(dst)
        # Teleport a random node: the most adversarial topology change.
        victim = rng.randrange(16)
        placement.move(victim, rng.uniform(0, 800), rng.uniform(0, 600))
        sim.run(until=sim.now + 2.0)
    return monitor.checks_run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    total = 0
    for seed in range(1, args.seeds + 1):
        checks = mobile_audit(seed)
        print("mobile scenario   seed=%d: %6d table audits, 0 violations"
              % (seed, checks))
        total += checks
        checks = teleport_audit(seed)
        print("teleport churn    seed=%d: %6d table audits, 0 violations"
              % (seed, checks))
        total += checks
    print("\nTotal: %d instant-by-instant audits; LDR never formed a loop"
          " nor violated the feasible-distance ordering." % total)


if __name__ == "__main__":
    main()
