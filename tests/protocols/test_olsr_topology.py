"""OLSR topology-table maintenance: ANSN replacement, expiry, dedup."""

import random

import pytest

from repro.mobility import StaticPlacement
from repro.protocols.olsr import OlsrConfig, OlsrProtocol
from repro.protocols.olsr.messages import OlsrTc
from repro.protocols.olsr.protocol import TopologyEntry
from tests.conftest import Network


def _protocol(config=None):
    net = Network(OlsrProtocol, StaticPlacement.line(2, 200.0),
                  config=config)
    return net, net.protocols[0]


def test_tc_installs_topology_entries():
    net, protocol = _protocol()
    protocol.on_packet(OlsrTc(origin=7, ansn=1, selectors=[8, 9]), from_id=1)
    assert (7, 8) in protocol.topology
    assert (7, 9) in protocol.topology


def test_newer_ansn_replaces_older_advertisement():
    net, protocol = _protocol()
    protocol.on_packet(OlsrTc(origin=7, ansn=1, selectors=[8]), from_id=1)
    protocol.on_packet(OlsrTc(origin=7, ansn=2, selectors=[9]), from_id=1)
    assert (7, 8) not in protocol.topology
    assert (7, 9) in protocol.topology


def test_duplicate_tc_ignored():
    net, protocol = _protocol()
    tc = OlsrTc(origin=7, ansn=3, selectors=[8])
    protocol.on_packet(tc, from_id=1)
    entry = protocol.topology[(7, 8)]
    protocol.on_packet(tc.copy(), from_id=1)
    assert protocol.topology[(7, 8)] is entry  # untouched


def test_topology_expiry_removes_edges_from_routes():
    net, protocol = _protocol(OlsrConfig(topology_hold_time=1.0))
    protocol.on_packet(OlsrTc(origin=1, ansn=1, selectors=[42]), from_id=1)
    # Give node 0 a symmetric link to 1 so the graph reaches 42 via 1.
    from repro.protocols.olsr.messages import OlsrHello

    protocol.on_packet(OlsrHello(1, [0], [], set()), from_id=1)
    net.run(0.5)
    assert protocol.routes.get(42) is not None
    net.run(2.0)
    protocol._recompute()
    assert protocol.routes.get(42) is None


def test_own_tc_ignored_on_reflection():
    net, protocol = _protocol()
    protocol.on_packet(OlsrTc(origin=0, ansn=1, selectors=[5]), from_id=1)
    assert (0, 5) not in protocol.topology


class _FullScanPurge:
    """Reference for ``_on_tc``'s topology bookkeeping without an index:
    every TC scans the whole table for the originator's entries."""

    def __init__(self, node_id, config):
        self.node_id = node_id
        self.config = config
        self.topology = {}
        self._dups = {}
        self._recompute_pending = False
        self._recompute_due = None

    def advance(self, now):
        # The recompute fires route_recompute_delay after it was asked for
        # (events at exactly `until` fire, as in Simulator.run).
        if self._recompute_pending and self._recompute_due <= now:
            self._recompute_pending = False

    def on_tc(self, tc, now):
        key = (tc.origin, tc.ansn)
        if tc.origin == self.node_id:
            return
        if key in self._dups and self._dups[key] > now:
            return
        self._dups[key] = now + self.config.duplicate_hold_time
        if len(self._dups) > 1024:
            self._dups = {k: v for k, v in self._dups.items() if v > now}
        changed = False
        for entry_key in list(self.topology):
            entry = self.topology[entry_key]
            if entry.origin == tc.origin and entry.ansn < tc.ansn:
                del self.topology[entry_key]
                changed = True
        expiry = now + self.config.topology_hold_time
        for selector in tc.selectors:
            entry_key = (tc.origin, selector)
            if entry_key not in self.topology:
                changed = True
            self.topology[entry_key] = TopologyEntry(
                tc.origin, selector, tc.ansn, expiry
            )
        if changed and not self._recompute_pending:
            self._recompute_pending = True
            self._recompute_due = now + self.config.route_recompute_delay


def _table(topology):
    return [(key, e.ansn, e.expiry) for key, e in topology.items()]


def _by_origin(topology):
    grouped = {}
    for key in topology:
        grouped.setdefault(key[0], []).append(key)
    return grouped


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_origin_index_purges_like_a_full_scan(seed):
    # A lone node: no HELLO is ever heard, so only these TCs touch its
    # topology table or schedule a recompute.
    config = OlsrConfig(duplicate_hold_time=1.5)
    net = Network(OlsrProtocol, StaticPlacement({0: (0.0, 0.0)}),
                  config=config)
    protocol = net.protocols[0]
    reference = _FullScanPurge(0, config)
    rng = random.Random(seed)
    latest = {}  # origin -> highest ANSN sent
    seen = {"new": 0, "repeat_after_expiry": 0, "older_after_newer": 0}
    now = 0.0
    for _ in range(600):
        now += rng.choice((0.01, 0.05, 0.2, 0.7, 2.0)) * rng.random()
        origin = rng.randrange(6)  # 0 is this node: its own TCs are ignored
        top = latest.get(origin, 0)
        kind = rng.choice(("new", "new", "repeat", "older"))
        ansn = top + 1 if kind == "new" or top == 0 else (
            top if kind == "repeat" else rng.randrange(1, top + 1))
        latest[origin] = max(top, ansn)
        # Selectors overlap across originators, and may be empty.
        selectors = rng.sample(range(10), rng.randrange(5))
        tc = OlsrTc(origin=origin, ansn=ansn, selectors=selectors)

        net.sim.run(until=now)
        reference.advance(now)
        dup = protocol._dups.get((origin, ansn))
        if origin != 0 and (dup is None or dup <= now):
            if ansn > top:
                seen["new"] += 1
            elif dup is not None and ansn == top:
                seen["repeat_after_expiry"] += 1
            elif ansn < top:
                seen["older_after_newer"] += 1
        protocol.on_packet(tc, from_id=1)
        reference.on_tc(tc, now)

        assert _table(protocol.topology) == _table(reference.topology)
        assert protocol._recompute_pending == reference._recompute_pending
        index = {o: list(keys) for o, keys in protocol._origin_keys.items()}
        assert {o: keys for o, keys in index.items() if keys} \
            == _by_origin(protocol.topology)
    assert all(count > 0 for count in seen.values()), seen
