"""The divergence grid: counterexample x protocol verdict matrix.

Runs every counterexample against a protocol list through the
:class:`~repro.exec.engine.CampaignEngine` with per-trial trace
artifacts on, derives each cell's verdict twice — online (the monitor's
violation counts in the metric row) and offline (:mod:`repro.verify.
replay` over the trace artifact) — and cross-checks the two.  A cell is
a *regression* when its verdict deviates from the counterexample's
pinned ``expected`` map, or when online and offline disagree.

For the headline LDR-vs-AODV pairs the grid also names the first
diverging ``route`` event between the two traces (the same comparison
``repro trace diff`` makes), answering "where exactly do the tables
part ways under the identical schedule?".
"""

from repro.exec import CampaignEngine, ResultCache
from repro.obs.events import first_divergence
from repro.obs.reader import read_trace
from repro.verify.counterexamples import load_suite, verdict_from_breakdown
from repro.verify.replay import replay_trace

#: Default protocol columns: the paper's protagonist, the attack's
#: subject, and the sequence-number-free control — the same trio the
#: churn campaign compares.
GRID_PROTOCOLS = ("ldr", "aodv", "dsr")


class GridCell:
    """One (counterexample, protocol) verdict pair."""

    def __init__(self, counterexample, protocol, expected, online,
                 replay, trace_path):
        self.counterexample = counterexample
        self.protocol = protocol
        self.expected = expected
        self.online = online          # verdict from the metric row
        self.replay = replay          # ReplayResult (or None, untraced)
        self.trace_path = trace_path

    @property
    def offline(self):
        return self.replay.verdict if self.replay is not None else None

    @property
    def consistent(self):
        """Online and offline verdicts (and monitor agreement) line up."""
        if self.replay is None:
            return True
        if self.replay.agreement is False:
            return False
        if self.replay.truncated:
            return True  # inconclusive by policy, not a disagreement
        return self.online == self.replay.verdict

    @property
    def regression(self):
        verdict = self.offline or self.online
        return verdict != self.expected or not self.consistent


def run_grid(suite=None, protocols=GRID_PROTOCOLS, trace_dir="traces",
             gzip=False, jobs=1, cache_dir=None, use_cache=True,
             progress=None):
    """Run the full matrix; returns ``(cells, divergences)``.

    ``cells`` is a list of :class:`GridCell` in (counterexample,
    protocol) order.  ``divergences`` maps each counterexample name to
    the first diverging route event between its LDR and AODV traces
    (``None`` entries for pairs that never diverge, which would itself
    be suspicious).  Trials run through the campaign engine — cached,
    parallelizable, trace artifacts under ``trace_dir``.
    """
    if suite is None:
        suite = load_suite()
    cache = ResultCache(cache_dir) if use_cache else None
    engine = CampaignEngine(jobs=jobs, cache=cache, trace_dir=trace_dir,
                            trace_gzip=gzip, progress=progress)
    pairs = [(ce, protocol) for ce in suite.values()
             for protocol in protocols]
    configs = [ce.config(protocol) for ce, protocol in pairs]
    result = engine.run(configs)

    cells = []
    for (ce, protocol), trial in zip(pairs, result.trials):
        if trial.error is not None:
            raise RuntimeError(
                "counterexample %s on %s failed: %s"
                % (ce.name, protocol, trial.error))
        row = trial.row
        breakdown = dict(row.get("invariant_breakdown") or {})
        online = verdict_from_breakdown(breakdown)
        trace_path = engine._trace_path(trial)
        replay = (replay_trace(trace_path)
                  if trace_path is not None and trace_path.is_file()
                  else None)
        cells.append(GridCell(
            counterexample=ce, protocol=protocol,
            expected=ce.expected_verdict(protocol),
            online=online, replay=replay,
            trace_path=str(trace_path) if trace_path is not None else None,
        ))

    divergences = _ldr_aodv_divergences(cells, protocols)
    return cells, divergences


def _ldr_aodv_divergences(cells, protocols):
    """First diverging route event per counterexample, LDR vs AODV."""
    if "ldr" not in protocols or "aodv" not in protocols:
        return {}
    by_key = {(c.counterexample.name, c.protocol): c for c in cells}
    out = {}
    for name in sorted({c.counterexample.name for c in cells}):
        ldr = by_key.get((name, "ldr"))
        aodv = by_key.get((name, "aodv"))
        if not (ldr and aodv and ldr.trace_path and aodv.trace_path):
            continue
        out[name] = first_route_divergence(ldr.trace_path, aodv.trace_path)
    return out


def first_route_divergence(path_a, path_b):
    """The first differing route event between two traces, or None.

    Returns ``(index, event_a, event_b)`` — either event may be None
    when one side simply ran out of route events; ``repro trace diff
    --kind route`` reports the same event.
    """
    _, events_a = read_trace(path_a)
    _, events_b = read_trace(path_b)
    return first_divergence([e for e in events_a if e.kind == "route"],
                            [e for e in events_b if e.kind == "route"])


def format_grid(cells, divergences=None):
    """Render the verdict matrix the way the churn table renders."""
    header = "{:<12}{:<7}{:>9}{:>9}{:>9}{:>13}  {}".format(
        "example", "proto", "expected", "online", "offline", "agreement",
        "status")
    lines = [header, "-" * len(header)]
    previous = None
    for cell in cells:
        name = cell.counterexample.name
        if previous is not None and name != previous:
            lines.append("")
        previous = name
        replay = cell.replay
        if replay is None:
            agreement = "untraced"
        elif replay.agreement is None:
            agreement = "n/a"
        else:
            agreement = "yes" if replay.agreement else "NO"
        status = "REGRESSION" if cell.regression else "ok"
        lines.append("{:<12}{:<7}{:>9}{:>9}{:>9}{:>13}  {}".format(
            name, cell.protocol, cell.expected, cell.online,
            cell.offline or "-", agreement, status))
    if divergences:
        lines.append("")
        lines.append("first LDR-vs-AODV route divergence:")
        for name in sorted(divergences):
            divergence = divergences[name]
            if divergence is None:
                lines.append("  %-12s (none: traces identical)" % name)
                continue
            index, a, b = divergence
            lines.append("  %-12s route event #%d" % (name, index))
            lines.append("    ldr : %s" % (repr(a) if a else "(ended)"))
            lines.append("    aodv: %s" % (repr(b) if b else "(ended)"))
    return "\n".join(lines)
