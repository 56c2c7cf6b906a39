"""Executable counterexamples from the published AODV loop literature.

Each ``examples/counterexamples/*.json`` file encodes one interleaving
from van Glabbeek/Höfner et al. ("Sequence Numbers Do Not Guarantee Loop
Freedom", arXiv:1512.08891; "Modelling and Verifying the AODV Routing
Protocol", arXiv:1512.08867) as a fully deterministic scenario: pinned
node placements (no mobility draws), an explicit CBR flow schedule (no
traffic draws), and a :class:`~repro.faults.plan.FaultPlan` that times
the link blackouts, crashes, and reboots the attack needs.  Because a
counterexample is just a :class:`~repro.experiments.scenario.
ScenarioConfig` template, it runs unchanged against *any* registry
protocol — the point is to show the loop forming on AODV and the same
schedule leaving LDR's NDC/FDC/SDC untouched.

A counterexample carries an ``expected`` verdict map (protocol name →
``"loop"`` / ``"flagged"`` / ``"immune"``, with ``"*"`` as fallback);
its keys, like those of ``notes``, must be registry protocol names.
Where our RFC 3561 AODV *dodges* a published interleaving, the JSON says
so — ``expected`` pins the dodge and ``notes`` documents precisely which
draft-specific behavior prevents the loop (e.g. ce-aodv-2: the §6.11
invalidation bump plus §6.5 RREQ stamping) — so a regression that loses
that behavior flips the verdict and fails the suite.
"""

import json
import pathlib

from repro.experiments.scenario import PROTOCOLS, ScenarioConfig, build_scenario
from repro.faults import FaultPlan

#: Where the shipped counterexample suite lives (repo checkout layout:
#: ``src/repro/verify/`` -> three parents up -> ``examples/...``).
COUNTEREXAMPLES_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / "examples" / "counterexamples"
)

#: Verdict vocabulary, in increasing severity.
VERDICTS = ("immune", "inconclusive", "flagged", "loop")


class CounterexampleError(ValueError):
    """A counterexample file is missing or malformed."""


class Counterexample:
    """One published interleaving as a runnable scenario template."""

    REQUIRED = ("name", "title", "source", "num_nodes", "placements",
                "duration", "flows", "fault_plan", "expected")

    def __init__(self, data, origin=None):
        missing = [key for key in self.REQUIRED if key not in data]
        if missing:
            raise CounterexampleError(
                "%s: missing field(s) %s" % (origin or "<data>", missing)
            )
        self.name = data["name"]
        self.title = data["title"]
        self.source = data["source"]
        self.description = data.get("description", "")
        self.num_nodes = int(data["num_nodes"])
        self.placements = [tuple(p) for p in data["placements"]]
        self.transmission_range = float(data.get("transmission_range", 275.0))
        self.duration = float(data["duration"])
        self.seed = int(data.get("seed", 1))
        self.flows = [tuple(f) for f in data["flows"]]
        self.fault_plan = FaultPlan.from_dict(data["fault_plan"])
        self.expected = dict(data["expected"])
        self.notes = dict(data.get("notes", {}))
        self.origin = origin
        for verdict in self.expected.values():
            if verdict not in VERDICTS:
                raise CounterexampleError(
                    "%s: unknown expected verdict %r (choose from %s)"
                    % (origin or self.name, verdict, list(VERDICTS))
                )
        for field in ("expected", "notes"):
            for key in getattr(self, field):
                if key != "*" and key not in PROTOCOLS:
                    raise CounterexampleError(
                        "%s: %s names unknown protocol %r (known: %s)"
                        % (origin or self.name, field, key, sorted(PROTOCOLS))
                    )

    def config(self, protocol, trace=False):
        """The :class:`ScenarioConfig` running this schedule on ``protocol``.

        Everything the attack needs is pinned — placements, flows, fault
        plan, seed — so the trial is a pure function of ``protocol``, and
        two runs produce byte-identical traces.
        """
        return ScenarioConfig(
            protocol=protocol,
            num_nodes=self.num_nodes,
            num_flows=0,
            duration=self.duration,
            transmission_range=self.transmission_range,
            seed=self.seed,
            placements=self.placements,
            flows=self.flows,
            fault_plan=self.fault_plan,
            invariant_check=True,
            trace=trace,
        )

    def expected_verdict(self, protocol):
        """The pinned verdict for ``protocol`` (``"*"`` as fallback)."""
        return self.expected.get(protocol, self.expected.get("*", "immune"))

    def describe(self):
        lines = [
            "%s: %s" % (self.name, self.title),
            "  source  : %s" % self.source,
            "  topology: %d node(s), %gs, %d pinned flow(s), %d fault(s)"
            % (self.num_nodes, self.duration, len(self.flows),
               len(self.fault_plan.events)),
            "  expected: " + ", ".join(
                "%s=%s" % (proto, verdict)
                for proto, verdict in sorted(self.expected.items())
            ),
        ]
        return "\n".join(lines)


def load_counterexample(path):
    """Parse one counterexample JSON file."""
    path = pathlib.Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise CounterexampleError("cannot read %s: %s" % (path, err))
    except ValueError as err:
        raise CounterexampleError("%s: not valid JSON: %s" % (path, err))
    return Counterexample(data, origin=str(path))


def load_suite(directory=None):
    """All counterexamples under ``directory``, keyed by name, sorted.

    Defaults to the shipped ``examples/counterexamples/`` suite.
    """
    directory = pathlib.Path(directory or COUNTEREXAMPLES_DIR)
    if not directory.is_dir():
        raise CounterexampleError(
            "no counterexample directory at %s" % directory
        )
    suite = {}
    for path in sorted(directory.glob("*.json")):
        ce = load_counterexample(path)
        if ce.name in suite:
            raise CounterexampleError(
                "duplicate counterexample name %r (%s and %s)"
                % (ce.name, suite[ce.name].origin, ce.origin)
            )
        suite[ce.name] = ce
    if not suite:
        raise CounterexampleError(
            "no *.json counterexamples under %s" % directory
        )
    return suite


class CounterexampleRun:
    """Outcome of executing one counterexample on one protocol."""

    def __init__(self, counterexample, protocol, verdict, breakdown,
                 violations, row, trace_path=None):
        self.counterexample = counterexample
        self.protocol = protocol
        self.verdict = verdict
        self.breakdown = breakdown  # violation kind -> count
        self.violations = violations  # (time, kind, detail)
        self.row = row
        self.trace_path = trace_path

    @property
    def matches_expected(self):
        return self.verdict == self.counterexample.expected_verdict(
            self.protocol)


def verdict_from_breakdown(breakdown):
    """Collapse a violation-kind histogram to a verdict string."""
    if breakdown.get("loop"):
        return "loop"
    if any(breakdown.values()):
        return "flagged"
    return "immune"


def run_counterexample(counterexample, protocol, trace_path=None):
    """Execute one counterexample in-process; returns a
    :class:`CounterexampleRun`.

    ``trace_path`` writes the run's canonical JSONL trace (gzip when the
    name ends in ``.gz``) with the ``destinations`` header the offline
    replay sweep needs.
    """
    config = counterexample.config(protocol, trace=trace_path is not None)
    scenario = build_scenario(config)
    row = scenario.run().as_dict()
    breakdown = scenario.monitor.summary()
    violations = list(scenario.monitor.violations)
    if trace_path is not None:
        scenario.write_trace(trace_path)
    return CounterexampleRun(
        counterexample, protocol,
        verdict=verdict_from_breakdown(breakdown),
        breakdown=breakdown, violations=violations, row=row,
        trace_path=trace_path,
    )
