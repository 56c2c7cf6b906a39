"""Incremental audits: after a clean audit, a change re-checks one node.

After a full sweep of a destination comes out clean, the monitor answers
the next table change from the node that changed alone
(:class:`~repro.routing.loopcheck.CleanAudit`), and sweeps in full on any
finding.  That shortcut must be invisible.  The differential fuzz here
applies random single-node edits to hand-built tables, each announced the
way a protocol announces a change, and after every audit compares the
monitor's new violations with a from-scratch full sweep
(:func:`first_breach` plus :func:`ownership_breaches`) under the same
ceiling.  It also pins *when* the monitor sweeps: only without a clean
record, and then exactly when the full sweep finds something.

The quick seeds run in tier-1 and must reach every fallback branch
(``test_quick_fuzz_reaches_every_branch``); the wide sweep is ``slow``.
The last tests pin the violation lists and audit counts of a protocol x
fault-plan grid of whole scenarios by digest.
"""

import hashlib
import json
import random
import re

import pytest

from repro.experiments.campaigns import churn_plans, node_scenario
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.faults import InvariantMonitor, InvariantViolation
from repro.routing.loopcheck import (
    first_breach,
    ownership_breaches,
    raise_ceiling,
)

UNKNOWN = 99  # a successor id with no table: ends a walk


class _Clock:
    now = 0.0


class _Table:
    """One node's hand-built routing table (like the replay's)."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.succ = {}
        self.metric = {}
        self.own_seq = None

    def successor(self, dst):
        return self.succ.get(dst)

    def route_metric(self, dst):
        return self.metric.get(dst)


class _Fuzz:
    """Random single-node edits, each checked against a full sweep."""

    def __init__(self, seed, check_ordering, monkeypatch):
        self.rng = random.Random(seed)
        self.check_ordering = check_ordering
        self.n = self.rng.randint(3, 7)
        self.dsts = self.rng.sample(range(self.n), self.rng.randint(1, 2))
        self.tables = {node: _Table(node) for node in range(self.n)}
        for dst in self.dsts:
            self.tables[dst].own_seq = self.rng.choice([None, 5, 5, 5])
        self.clock = _Clock()
        self.monitor = InvariantMonitor(self.clock, self.tables,
                                        check_ordering=check_ordering)
        # The reference's own view: live tables in walk order, ceilings,
        # and which destinations the monitor should hold a clean record of.
        self.live = dict(self.tables)
        self.ceiling = {}
        self.clean = set()
        self.outcomes = {}
        self.sweeps = 0

        def counting(*args):
            self.sweeps += 1
            return first_breach(*args)

        monkeypatch.setattr("repro.faults.monitor.first_breach", counting)

    # -- the reference ---------------------------------------------------

    def _full_sweep(self, dst):
        found = []
        breach = first_breach(self.live, dst, self.check_ordering)
        if breach is not None:
            found.append((breach.kind, breach.detail))
        if dst in self.live:
            self.ceiling[dst] = raise_ceiling(self.ceiling.get(dst),
                                              self.live[dst].own_seq)
        ceiling = self.ceiling.get(dst)
        found.extend(("seqnum_ownership", detail) for detail
                     in ownership_breaches(self.live, dst, ceiling))
        return found, ceiling

    def _tally(self, outcome):
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def _audited(self, dst, audit, node=None):
        """Run ``audit`` and check it against the reference."""
        before = len(self.monitor.violations)
        sweeps = self.sweeps
        had_record = dst in self.clean
        expected, ceiling = self._full_sweep(dst)
        audit()
        got = [(kind, detail) for _, kind, detail
               in self.monitor.violations[before:]]
        assert got == expected
        swept = self.sweeps > sweeps
        if node is not None and had_record:
            # A clean record answers the change unless the sweep finds
            # something; then the sweep runs and reports it.
            assert swept == bool(expected)
            self._tally(self._outcome(dst, node, expected))
        else:
            assert swept
        if expected or ceiling is None:
            self.clean.discard(dst)
        else:
            self.clean.add(dst)

    def _outcome(self, dst, node, expected):
        if not expected:
            if node == dst:
                return "clean at the destination"
            current = self.tables[node].successor(dst)
            seen = {node}
            while current not in (None, dst) and current not in seen:
                seen.add(current)
                if current not in self.live:
                    return "clean, walk ends at a dead end"
                current = self.live[current].successor(dst)
            return "clean"
        kind, detail = expected[0]
        if kind != "ordering":
            return "fallback on " + kind
        ends = re.search(r": (\d+) ?\((?:sn|fd)=.*(?:uses|->) (\d+) ?\(",
                         detail).groups()
        return ("fallback on a hop out of the changed node"
                if int(ends[0]) == node else
                "fallback on a hop into the changed node")

    # -- edits -----------------------------------------------------------

    def _label(self, dst):
        top = self.ceiling.get(dst)
        top = 5 if top is None else top
        return self.rng.randint(top - 2, top)

    def _metric(self, table, dst):
        roll = self.rng.random()
        if roll < 0.15:
            return None
        ahead = self.live.get(table.successor(dst))
        below = None if ahead is None else ahead.route_metric(dst)
        if below is not None and roll < 0.6:
            # Ordered toward the successor (equal sn, larger fd), so only
            # the hops into this node can break.
            fd = below[1] + 1
        else:
            below, fd = None, self.rng.randint(0, 4)
        label = self._label(dst) if below is None else below[0]
        return (label, fd, fd + self.rng.randint(0, 2))

    def step(self):
        rng = self.rng
        self.clock.now += 1.0
        roll = rng.random()
        live = list(self.live)
        dst = rng.choice(self.dsts)
        if roll < 0.05:
            self._audited_all()
            return
        if roll < 0.07 and len(live) > 2:
            victim = rng.choice(live)
            self.monitor.on_crash(victim)
            del self.live[victim]
            self.clean.clear()
            self._tally("crash")
            return
        dead = [node for node in self.tables if node not in self.live]
        if roll < 0.09 and dead:
            node = rng.choice(dead)
            fresh = _Table(node)
            fresh.own_seq = self.tables[node].own_seq
            self.tables[node] = self.live[node] = fresh
            self.monitor.on_reboot(node, fresh)
            self.clean.clear()
            self._tally("reboot")
            return
        if roll < 0.2:
            # The destination mints a label, silently: the next audit
            # samples it, and the ceiling never falls.
            owner = self.tables[dst]
            owner.own_seq = rng.choice([None, self._label(dst) + 1,
                                        self._label(dst) - 1])
            return
        if roll < 0.24 and dst in self.live:
            node = dst
        else:
            node = rng.choice(live)
            ahead = [table.successor(dst) for table in self.live.values()]
            ahead = [hop for hop in ahead if hop in self.live and hop != dst]
            if 0.6 <= roll < 0.9 and ahead and rng.random() < 0.5:
                # Re-label a node others route through: the hops into it
                # are the ones the record re-checks.
                node = rng.choice(ahead)
        table = self.live[node]
        if roll < 0.6:
            table.succ[dst] = rng.choice(
                [None, node, dst, UNKNOWN] + live + live)
        elif roll < 0.9:
            table.metric[dst] = self._metric(table, dst)
        else:
            top = self.ceiling.get(dst)
            forged = (5 if top is None else top) + rng.randint(1, 3)
            if not self.check_ordering and rng.random() < 0.3:
                forged = "x"  # no order against int ceilings: skipped
            table.metric[dst] = (forged, 0, 0)
        self._audited(
            dst, lambda: self.monitor.on_table_change(table, dst), node)

    def _audited_all(self):
        for dst in self.dsts:
            self._audited(dst, lambda: self.monitor.check_all([dst]))

    def run(self, steps):
        for _ in range(steps):
            self.step()
        return self


QUICK_SEEDS = range(40)
STEPS = 150


@pytest.mark.parametrize("check_ordering", [True, False])
@pytest.mark.parametrize("seed", QUICK_SEEDS)
def test_monitor_agrees_with_full_sweep(seed, check_ordering, monkeypatch):
    _Fuzz(seed, check_ordering, monkeypatch).run(STEPS)


@pytest.mark.slow
@pytest.mark.parametrize("check_ordering", [True, False])
@pytest.mark.parametrize("seed", range(40, 640))
def test_monitor_agrees_with_full_sweep_wide(seed, check_ordering,
                                             monkeypatch):
    _Fuzz(seed, check_ordering, monkeypatch).run(STEPS)


def test_quick_fuzz_reaches_every_branch(monkeypatch):
    outcomes = {}
    for check_ordering in (True, False):
        for seed in QUICK_SEEDS:
            fuzz = _Fuzz(seed, check_ordering, monkeypatch).run(STEPS)
            for outcome, count in fuzz.outcomes.items():
                outcomes[outcome] = outcomes.get(outcome, 0) + count
    assert set(outcomes) == {
        "clean", "clean at the destination",
        "clean, walk ends at a dead end",
        "fallback on loop", "fallback on seqnum_ownership",
        "fallback on a hop out of the changed node",
        "fallback on a hop into the changed node",
        "crash", "reboot",
    }, outcomes
    assert outcomes["clean"] > sum(
        count for outcome, count in outcomes.items()
        if outcome.startswith("fallback"))


def test_clean_record_is_kept_only_with_a_known_ceiling():
    tables = {0: _Table(0), 1: _Table(1), 2: _Table(2)}
    tables[1].succ[0] = 0
    monitor = InvariantMonitor(_Clock(), tables)
    monitor.check_all([0])
    assert 0 not in monitor._clean  # no label yet: nothing to hold
    tables[0].own_seq = 3
    monitor.on_table_change(tables[2], 0)
    assert 0 in monitor._clean
    tables[2].succ[0] = 1
    monitor.on_table_change(tables[2], 0)
    assert monitor._clean[0].into == {0: {1}, 1: {2}}
    tables[2].succ[0] = None
    monitor.on_table_change(tables[2], 0)
    assert monitor._clean[0].succ == {1: 0}
    assert monitor.checks_run == 4 and monitor.violations == []


def test_strict_fallback_raises_the_sweeps_first_breach():
    tables = {node: _Table(node) for node in range(4)}
    tables[0].own_seq = 1
    tables[1].succ[0] = 2
    monitor = InvariantMonitor(_Clock(), tables, strict=True)
    monitor.check_all([0])
    tables[2].succ[0] = 1
    with pytest.raises(InvariantViolation, match=r"\[1, 2, 1\]"):
        monitor.on_table_change(tables[2], 0)
    assert 0 not in monitor._clean


# ----------------------------------------------------------------------
# Whole scenarios: the audit grid's violations and audit counts, pinned
# ----------------------------------------------------------------------

GRID_PROTOCOLS = ("ldr", "aodv", "olsr", "dsr", "dsr7")


def _grid():
    """``repro audit``'s shape at seeds 1-10, and every churn plan."""
    for protocol in GRID_PROTOCOLS:
        for seed in range(1, 11):
            yield ("audit", protocol, seed), ScenarioConfig(
                protocol=protocol, num_nodes=20, width=1500.0, height=300.0,
                num_flows=4, duration=20.0, pause_time=0.0, seed=seed,
                invariant_check=True)
    for name, plan in churn_plans(20.0, 30):
        for protocol in GRID_PROTOCOLS:
            for seed in (1, 2, 3):
                yield (name, protocol, seed), node_scenario(
                    30, 6, 0.0, 20.0, seed=seed, protocol=protocol,
                    fault_plan=plan, invariant_check=True)


def _audit_digest(keys):
    verdicts = {}
    for key, config in _grid():
        if key not in keys:
            continue
        scenario = build_scenario(config)
        scenario.run()
        monitor = scenario.monitor
        verdicts["/".join(map(str, key))] = [
            monitor.checks_run, [list(v) for v in monitor.violations]]
    blob = json.dumps(verdicts, sort_keys=True).encode()
    return len(verdicts), hashlib.sha256(blob).hexdigest()


#: Cases with violations (OLSR claims no loop freedom) beside clean ones
#: under every fault plan, for tier-1.
QUICK_GRID = {
    ("audit", "olsr", 1), ("audit", "ldr", 3), ("crash", "ldr", 1),
    ("reboot", "ldr", 2), ("reboot", "olsr", 2), ("partition", "olsr", 1),
    ("partition", "aodv", 1), ("fuzz", "olsr", 1), ("fuzz", "aodv", 2),
}


def test_audit_grid_subset_is_pinned():
    assert _audit_digest(QUICK_GRID) == (len(QUICK_GRID), QUICK_DIGEST)


@pytest.mark.slow
def test_audit_grid_is_pinned():
    keys = {key for key, _ in _grid()}
    assert _audit_digest(keys) == (125, GRID_DIGEST)


QUICK_DIGEST = (
    "0b348d197dd6bb6c53cb92b74cb9dce414e9c7add01dabe248c2b859afb5e5b0")
GRID_DIGEST = (
    "945d60b580c2557e554d99946b87af5e840a5de4b043fed8d138680b88b61055")
