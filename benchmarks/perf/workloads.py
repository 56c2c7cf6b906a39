"""The benchmark's workloads: config grids that are pure functions of a seed.

Trial ``i`` of a grid gets seed ``seed + i``; the program receives only the
generated configs.  Each grid function takes its sizes as keyword arguments so
the self-tests can build the same grids at toy scale; the benchmark always
runs the defaults.  Why each workload exists is in ``README.md``.
"""

from repro.experiments.campaigns import churn_plans, node_scenario
from repro.experiments.scenario import ScenarioConfig

#: Terrain area per node: the paper's 50-node scenario (1500 m x 300 m).
AREA_PER_NODE = 1500.0 * 300.0 / 50.0
#: Terrain aspect ratio (width : height), as in the paper's rectangles.
ASPECT = 5.0


def terrain(num_nodes):
    """``(width, height)`` at the paper's node density and aspect ratio."""
    height = (num_nodes * AREA_PER_NODE / ASPECT) ** 0.5
    return ASPECT * height, height


def table1_configs(seed, protocols=("ldr", "aodv", "dsr", "olsr"),
                   nodes=(50, 100), duration=10.0, num_flows=10):
    """The paper's Table-1 10-flow block, scaled down.

    Every protocol at both paper terrains, with the pause time at 0, a
    quarter of the run and the whole run (static nodes).
    """
    configs = []
    for protocol in protocols:
        for num_nodes in nodes:
            for pause in (0.0, 0.25 * duration, duration):
                configs.append(node_scenario(
                    num_nodes, num_flows, pause, duration,
                    seed=seed + len(configs), protocol=protocol))
    return configs


def scale400_configs(seed, num_nodes=400, trials=4, duration=3.0,
                     num_flows=30, warmup=1.0):
    """LDR and AODV, alternating, at N = 400 and paper density."""
    width, height = terrain(num_nodes)
    return [ScenarioConfig(
        protocol=("ldr", "aodv")[i % 2], num_nodes=num_nodes, width=width,
        height=height, num_flows=num_flows, duration=duration,
        pause_time=0.0, warmup=warmup, seed=seed + i)
        for i in range(trials)]


def churn_configs(seed, protocols=("ldr", "aodv", "dsr"), num_nodes=50,
                  duration=20.0, num_flows=10):
    """Every churn fault plan x protocol, with the invariant monitor on."""
    configs = []
    for _, plan in churn_plans(duration, num_nodes):
        for protocol in protocols:
            configs.append(node_scenario(
                num_nodes, num_flows, 0.0, duration, seed=seed + len(configs),
                protocol=protocol, fault_plan=plan, invariant_check=True))
    return configs


def campaign_configs(seed, trials=250, num_nodes=12, duration=8.0,
                     num_flows=4, warmup=2.0):
    """Many tiny trials rotating LDR/AODV/DSR, at paper density."""
    width, height = terrain(num_nodes)
    return [ScenarioConfig(
        protocol=("ldr", "aodv", "dsr")[i % 3], num_nodes=num_nodes,
        width=width, height=height, num_flows=num_flows, duration=duration,
        pause_time=0.0, warmup=warmup, seed=seed + i)
        for i in range(trials)]


class Workload:
    """A named config grid, and whether its campaign records traces."""

    def __init__(self, name, build, trace=False):
        self.name = name
        self.build = build
        self.trace = trace


WORKLOADS = {workload.name: workload for workload in (
    Workload("table1", table1_configs),
    Workload("scale400", scale400_configs),
    Workload("churn", churn_configs),
    Workload("campaign", campaign_configs, trace=True),
)}
