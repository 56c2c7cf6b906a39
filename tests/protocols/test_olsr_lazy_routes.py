"""OLSR's lazy route table against the eager path.

Without a ``table_change_hook``, ``OlsrProtocol._recompute`` only
snapshots the topology graph; the BFS runs when the table is next read.
With a hook installed it solves at once and diffs old against new, so
the hook sees each change when it happens.  Both paths must give the
same run, byte for byte, and the same successor whenever anyone looks.
"""

import pytest

from repro.experiments.campaigns import node_scenario
from repro.experiments.scenario import Scenario
from repro.protocols.olsr import OlsrProtocol

SEEDS = (2, 7)
DURATION = 20.0
PROBE_EVERY = 0.5
#: An odd instant, so no recompute lands exactly on it.
INSTALL_AT = 9.8765


def _config(pause, seed):
    return node_scenario(30, 5, pause, DURATION, seed=seed, protocol="olsr")


def _noop_hook(protocol, dst):
    pass


@pytest.fixture
def solve_counts(monkeypatch):
    """Count ``_recompute`` calls and BFS solves across every node."""
    counts = {"recompute": 0, "solve": 0}

    def counting(name, method):
        def wrapper(self):
            counts[name] += 1
            return method(self)
        return wrapper

    monkeypatch.setattr(OlsrProtocol, "_recompute",
                        counting("recompute", OlsrProtocol._recompute))
    monkeypatch.setattr(OlsrProtocol, "_solve",
                        counting("solve", OlsrProtocol._solve))
    return counts


def _probed_run(config, hook=None):
    """Run ``config``; every ``PROBE_EVERY`` s record ``successor(d)`` for
    every node and destination."""
    scenario = Scenario(config)
    if hook is not None:
        for protocol in scenario.protocols.values():
            protocol.table_change_hook = hook
    ids = sorted(scenario.protocols)
    samples = []

    def probe():
        samples.append([
            scenario.protocols[node].successor(dst)
            for node in ids for dst in ids
        ])
        scenario.sim.schedule(PROBE_EVERY, probe)

    scenario.sim.schedule(PROBE_EVERY, probe)
    report = scenario.run()
    return report.as_dict(), report.profile_dict()["counters"], samples


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("pause", [0.0, DURATION], ids=["mobile", "static"])
def test_lazy_and_eager_runs_are_identical(pause, seed, solve_counts):
    config = _config(pause, seed)
    lazy = _probed_run(config)
    lazy_counts = dict(solve_counts)
    solve_counts.update(recompute=0, solve=0)
    eager = _probed_run(config, hook=_noop_hook)

    assert lazy[0] == eager[0]  # RunReport.as_dict()
    assert lazy[1] == eager[1]  # Profiler counters
    assert lazy[2] == eager[2]  # successor(d) at every probe
    assert len(lazy[2]) == int(DURATION / PROBE_EVERY)
    assert any(hop is not None for sample in lazy[2] for hop in sample)
    # Both paths ran: the lazy one deferred solves, the eager one did not.
    assert lazy_counts["recompute"] == solve_counts["recompute"]
    assert lazy_counts["solve"] < lazy_counts["recompute"]
    assert solve_counts["solve"] >= solve_counts["recompute"]


def _notifications(config, hooked_from_start):
    """Run ``config`` with a recording hook installed at ``INSTALL_AT``
    (and from the start if asked); returns the report, the notifications
    after ``INSTALL_AT``, and how many snapshots were pending there."""
    scenario = Scenario(config)
    protocols = scenario.protocols.values()
    log = []
    pending = []

    def hook(protocol, dst):
        log.append((scenario.sim.now, protocol.node_id, dst))

    def install():
        pending.append(sum(p._snapshot is not None for p in protocols))
        for protocol in protocols:
            protocol.table_change_hook = hook

    if hooked_from_start:
        install()
    scenario.sim.schedule(INSTALL_AT, install)
    report = scenario.run()
    return report.as_dict(), [n for n in log if n[0] > INSTALL_AT], pending[-1]


def test_hook_installed_while_a_snapshot_is_pending():
    config = _config(0.0, SEEDS[0])
    always, always_log, _ = _notifications(config, hooked_from_start=True)
    late, late_log, pending = _notifications(config, hooked_from_start=False)

    assert pending > 0  # some node still held an unsolved snapshot
    assert late_log  # and tables kept changing afterwards
    assert late_log == always_log
    assert late == always
