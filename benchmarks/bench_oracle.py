"""Oracle bound (contextualizes Figures 2–5).

A measurement beyond the paper: the **oracle** (god-view shortest paths,
zero control traffic) bounds what any protocol could deliver on each
scenario, so protocol-induced loss is the gap to the oracle, not to 1.0.
LDR and AODV run on the same workload beside it; the net-load column is
the control traffic each pays for its deliveries.
"""

from benchmarks.conftest import bench_campaign, save_result
from repro.analysis import connectivity_ratio
from repro.experiments.campaigns import node_scenario
from repro.experiments.scenario import build_scenario, run_scenario

PROTOCOLS = ("oracle", "ldr", "aodv")


def _rows(campaign):
    rows = []
    scenario_cfg = node_scenario(campaign.num_nodes_small, 10, 0,
                                 campaign.duration, seed=1)
    bound = connectivity_ratio(
        build_scenario(scenario_cfg).mobility, campaign.duration, samples=20)
    for protocol in PROTOCOLS:
        report = run_scenario(scenario_cfg.replaced(protocol=protocol))
        d = report.as_dict()
        rows.append((protocol, d["delivery_ratio"], d["network_load"],
                     d["mean_latency"]))
    return bound, rows


def test_oracle_bound(benchmark):
    campaign = bench_campaign()
    bound, rows = benchmark.pedantic(_rows, args=(campaign,),
                                     rounds=1, iterations=1)
    lines = ["Oracle bound (50 nodes, 10 flows, pause 0)"]
    lines.append("all-pairs physical connectivity: %.3f" % bound)
    lines.append("{:<10}{:>10}{:>12}{:>12}".format(
        "protocol", "delivery", "net load", "latency"))
    for protocol, delivery, load, latency in rows:
        lines.append("{:<10}{:>10.3f}{:>12.2f}{:>12.4f}".format(
            protocol, delivery, load, latency))
    save_result("oracle_bound", "\n".join(lines))

    results = {protocol: delivery for protocol, delivery, _, _ in rows}
    # Nothing beats the oracle.
    assert results["oracle"] >= max(results.values()) - 1e-9
