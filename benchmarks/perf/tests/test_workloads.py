"""The workload grids are a pure function of the seed."""

import pytest

from benchmarks.perf import workloads

SMALL = {
    "table1": dict(nodes=(8,), duration=2.0),
    "scale400": dict(num_nodes=16, trials=2, duration=2.0),
    "churn": dict(num_nodes=8, duration=2.0),
    "campaign": dict(trials=4, duration=2.0),
}


def grid(name, seed):
    return [config.to_dict()
            for config in workloads.WORKLOADS[name].build(seed, **SMALL[name])]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_grid_is_a_pure_function_of_the_seed(name):
    assert grid(name, 5) == grid(name, 5)
    assert grid(name, 5) != grid(name, 6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trial_i_gets_seed_plus_i(name):
    assert [c["seed"] for c in grid(name, 40)] == \
        list(range(40, 40 + len(grid(name, 40))))


def test_every_declared_workload_has_a_grid():
    from benchmarks.perf import report

    declared = [w["name"] for w in report.load_spec()["workloads"]]
    assert declared == list(workloads.WORKLOADS)


def test_terrain_keeps_paper_density_and_aspect():
    width, height = workloads.terrain(400)
    assert width / height == pytest.approx(workloads.ASPECT)
    assert width * height / 400 == pytest.approx(workloads.AREA_PER_NODE)
