"""The unit of work a campaign fans out: run one trial, return its row.

``run_trial_payload`` is a module-level function taking only JSON-able
data (a serialized :class:`ScenarioConfig` plus options), so process pools
can ship it with any start method and the dispatch format never depends on
pickle internals.  It never raises: failures — including per-trial
deadlines, enforced portably inside the worker (see
:mod:`repro.exec.deadline`) so a wedged simulation cannot stall the whole
campaign — come back as ``{"ok": False, "error": ...}`` outcomes for the
engine to retry, quarantine, or report.  Outcomes carry the worker's pid
so the campaign journal can attribute attempts to processes.  A trial
runs exactly the dispatched config on the default kernel: nothing in the
worker's environment alters it, so a row is a function of its cache key
alone.  The engine runs every trial through it, in-process or pooled.
"""

import os

from repro.exec.deadline import TrialTimeout, call_with_deadline
from repro.experiments.scenario import ScenarioConfig, run_scenario

__all__ = ["TrialTimeout", "run_trial_payload"]


def run_trial_payload(payload):
    """Execute one serialized trial; returns an outcome dict.

    ``payload`` is ``{"config": ScenarioConfig.to_dict(), "timeout":
    seconds-or-None}`` plus an optional ``"trace": path`` — when present
    the trial runs with the :mod:`repro.obs` recorder installed and its
    event stream is written (atomically) to that path as a JSONL trace
    artifact.  The outcome is ``{"ok": True, "row": RunReport.as_dict()}``
    on success — with ``"trace": path`` echoed back when an artifact was
    written — else ``{"ok": False, "error": traceback-text}``, possibly
    with a ``"warning"`` when the deadline fired but the trial thread
    could not be hard-cancelled.  ``"worker"`` carries this process's pid
    either way.
    """

    def trial():
        from repro.experiments.scenario import build_scenario

        config = ScenarioConfig.from_dict(payload["config"])
        trace_path = payload.get("trace")
        if trace_path is None:
            return {"row": run_scenario(config).as_dict()}
        from repro.obs import trace_header, write_trace

        scenario = build_scenario(config.replaced(trace=True))
        row = scenario.run().as_dict()
        # destinations = the traffic sinks the end-of-run audit sweep
        # covered; offline replay (repro.verify) sweeps exactly these.
        write_trace(trace_path, scenario.trace,
                    header=trace_header(
                        config=scenario.config,
                        destinations=sorted(
                            scenario.traffic.destinations_used()),
                    ))
        return {"row": row, "trace": trace_path}

    outcome = call_with_deadline(trial, payload.get("timeout"))
    if outcome["ok"]:
        outcome.update(outcome.pop("value"))
    outcome["worker"] = os.getpid()
    return outcome
