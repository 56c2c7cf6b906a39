"""numpy is the only runtime dependency.

A fresh interpreter with scipy and networkx made unimportable must still
import the package and the CLI, compute a confidence interval and a
connectivity bound, and run a scenario.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
sys.modules["scipy"] = sys.modules["networkx"] = None  # any import raises

import repro
import repro.__main__
from repro.analysis import Aggregate, connectivity_ratio
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.mobility import StaticPlacement

assert Aggregate([1.0, 2.0, 4.0]).ci > 0
assert connectivity_ratio(StaticPlacement.line(3, 200.0), 1.0, samples=2) == 1.0
run_scenario(ScenarioConfig(protocol="ldr", num_nodes=5, num_flows=1,
                            duration=6.0, seed=1))
print("ok")
"""


def test_runs_without_scipy_or_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
