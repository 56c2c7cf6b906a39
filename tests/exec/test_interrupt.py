"""Graceful interruption: SIGINT/SIGTERM checkpoint-and-exit, then resume."""

import json
import os
import signal

import pytest

from repro.exec.engine import CampaignEngine, CampaignError
from repro.exec.manifest import CampaignManifest, resume_campaign, start_campaign
from repro.experiments.scenario import ScenarioConfig


def _configs(n=3):
    return [ScenarioConfig(num_nodes=8, num_flows=2, duration=5.0,
                           seed=1 + i) for i in range(n)]


def _interrupt_after_first_settle(signum):
    state = {"sent": False}

    def callback(progress):
        if progress.done >= 1 and not state["sent"]:
            state["sent"] = True
            os.kill(os.getpid(), signum)

    return callback


@pytest.mark.parametrize("signum,name", [(signal.SIGINT, "SIGINT"),
                                         (signal.SIGTERM, "SIGTERM")])
def test_signal_checkpoints_journaled_run(tmp_path, signum, name):
    configs = _configs(3)
    root = tmp_path / "camp"
    manifest, engine = start_campaign(root, configs)
    engine.progress = _interrupt_after_first_settle(signum)
    previous = signal.getsignal(signum)
    result = engine.run(configs)
    manifest.close()
    # The run stopped at a trial boundary, reporting the signal and the
    # partial coverage rather than dying or finishing.
    assert result.interrupted == name
    assert 0 < len(result.completed_rows()) < len(configs)
    assert 0.0 < result.coverage < 1.0
    assert result.failed == 0
    with pytest.raises(CampaignError):
        result.rows()
    # The journal is valid and names the work left outstanding.
    loaded = CampaignManifest.load(root / "manifest.jsonl")
    done = loaded.counts()["done"]
    assert done == len(result.completed_rows())
    assert loaded.outstanding(max_attempts=2)
    # Handlers were restored on the way out.
    assert signal.getsignal(signum) is previous


# A pooled checkpoint kills its workers.  Had it also cancelled their
# futures, the executor's manager thread would raise InvalidStateError
# when the dead workers break the pool; the filter makes that a failure.
@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("jobs", [1, 2])
def test_resume_after_interrupt_matches_uninterrupted_run(tmp_path, jobs):
    configs = _configs(6)
    clean = CampaignEngine().run(configs)

    root = tmp_path / "camp"
    manifest, engine = start_campaign(root, configs, jobs=jobs)
    engine.progress = _interrupt_after_first_settle(signal.SIGINT)
    partial = engine.run(configs)
    manifest.close()
    assert partial.interrupted == "SIGINT"

    loaded, resumed = resume_campaign(root)
    assert resumed.interrupted is None
    assert resumed.coverage == 1.0
    assert json.dumps(resumed.rows(), sort_keys=True) == \
        json.dumps(clean.rows(), sort_keys=True)
    # Only the outstanding remainder executed; the checkpointed prefix
    # came back from the campaign cache.
    assert resumed.cached == len(partial.completed_rows())


def test_second_signal_aborts_hard(tmp_path):
    configs = _configs(3)
    root = tmp_path / "camp"
    manifest, engine = start_campaign(root, configs)
    sent = {"n": 0}

    def impatient(progress):
        if progress.done >= 1 and sent["n"] == 0:
            sent["n"] = 1
            os.kill(os.getpid(), signal.SIGINT)
            os.kill(os.getpid(), signal.SIGINT)  # the user means it

    engine.progress = impatient
    with pytest.raises(KeyboardInterrupt):
        engine.run(configs)
    manifest.close()
    # Even a hard abort leaves a loadable journal (that is the point of
    # committing per record): resume finishes the campaign.
    loaded, resumed = resume_campaign(root)
    assert resumed.coverage == 1.0


def test_unjournaled_runs_do_not_install_handlers():
    seen = {}
    previous = signal.getsignal(signal.SIGINT)

    def snoop(progress):
        seen["handler"] = signal.getsignal(signal.SIGINT)

    CampaignEngine(progress=snoop).run(_configs(1))
    assert seen["handler"] is previous  # untouched mid-run


def test_journaled_runs_install_and_restore_handlers(tmp_path):
    configs = _configs(1)
    root = tmp_path / "camp"
    manifest, engine = start_campaign(root, configs)
    previous = signal.getsignal(signal.SIGINT)
    seen = {}

    def snoop(progress):
        seen["handler"] = signal.getsignal(signal.SIGINT)

    engine.progress = snoop
    engine.run(configs)
    manifest.close()
    assert seen["handler"] is not previous  # checkpoint handler mid-run
    assert signal.getsignal(signal.SIGINT) is previous  # restored after
