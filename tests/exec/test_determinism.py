"""Determinism regression: identical results in-process and in workers.

The cache key scheme and the parallel execution path are both only sound
if a ``(ScenarioConfig, seed)`` trial is a pure function of its config —
the same ``RunReport.as_dict()`` whether the trial runs in this
interpreter, in a forked worker, or in a freshly spawned one.
"""

import functools
import multiprocessing
import os
import pathlib
from concurrent.futures import ProcessPoolExecutor

import repro
import repro.exec.engine as engine_mod
from repro.exec import worker
from repro.exec.engine import CampaignEngine
from repro.experiments.scenario import ScenarioConfig, run_scenario


def _config(seed=7):
    return ScenarioConfig(protocol="ldr", num_nodes=10, num_flows=2,
                          duration=6.0, pause_time=1.0, seed=seed)


def _src_on_pythonpath(monkeypatch):
    """Make sure spawned interpreters can import ``repro``."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        monkeypatch.setenv(
            "PYTHONPATH", src + (os.pathsep + existing if existing else "")
        )


def test_payload_roundtrip_matches_direct_run():
    config = _config()
    direct = run_scenario(config).as_dict()
    outcome = worker.run_trial_payload({"config": config.to_dict()})
    assert outcome["ok"]
    assert outcome["row"] == direct


def test_subprocess_worker_matches_in_process(monkeypatch):
    config = _config()
    in_process = worker.run_trial_payload({"config": config.to_dict()})
    _src_on_pythonpath(monkeypatch)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        spawned = pool.apply(worker.run_trial_payload,
                             ({"config": config.to_dict()},))
    assert spawned["ok"] and in_process["ok"]
    assert spawned["row"] == in_process["row"]


def test_spawned_pool_engine_matches_serial(monkeypatch):
    configs = [_config(seed=s) for s in (1, 2, 3)]
    serial = CampaignEngine().run_rows(configs)
    _src_on_pythonpath(monkeypatch)
    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    spawned = CampaignEngine(jobs=2).run_rows(configs)
    assert spawned == serial
