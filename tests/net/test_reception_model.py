"""Differential suite for the channel's reception model against a list model.

:class:`~repro.net.channel.WirelessChannel` keeps one record per airing and
lets each radio keep its own collision state (the latest end of anything
it heard, and the one airing it may still be receiving cleanly).
:class:`_ListChannel` below is the same medium written the obvious way:
one ``_Reception`` per receiver, kept in a per-receiver list that every
transmit scans for overlap, and one completion event per reception.

Seeded random *programs* on small static topologies (broadcasts and
unicasts, crashes and reboots, link denials, a scripted fuzzer) are
replayed on both, and every observable must agree exactly: each
decoded or overheard copy in delivery order, every unicast outcome, and
the NAV each radio ends with.  Programs deliberately hit the boundary
cases: a frame starting exactly at another's end, one starting in the
1 µs between another's end and its completion, three-way overlaps,
receivers that are mid-transmission and crashes mid-frame (a radio that
powers off loses every frame still on the air at it, even if it reboots
before the frame completes).

The quick parametrization runs in tier-1; a wider sweep rides the
``slow`` marker.  End-to-end row identity lives in
``tests/experiments/test_scheduler_determinism.py``.
"""

import random

import pytest

from repro.metrics import MetricsCollector
from repro.mobility import StaticPlacement
from repro.net import Node, WirelessChannel
from repro.net.channel import PROPAGATION_DELAY, FuzzDecision
from repro.net.packet import Frame, Packet
from repro.sim import Simulator

RANGE = 275.0
_DURATIONS = (2e-4, 5e-4, 1e-3, 1e-3, 2.5e-3)
# What the scripted fuzzer does to one reception: nothing (most often),
# corrupt it, delay it, duplicate it, or a combination.
_FUZZ = (None, None, None, None,
         (True, 0.0, False), (False, 3e-4, False), (False, 2e-3, False),
         (False, 0.0, True), (False, 5e-4, True), (True, 0.0, True))
_BUSY = object()  # stands in for the MAC's job on the air


class _Tagged(Packet):
    """A packet carrying its program-assigned tag (uids differ per world)."""

    __slots__ = ("tag",)

    def __init__(self, tag):
        super().__init__()
        self.tag = tag


class _Reception:
    """One frame arriving at one receiver (the model's record)."""

    __slots__ = ("frame", "end", "corrupted")

    def __init__(self, frame, end, corrupted):
        self.frame = frame
        self.end = end
        self.corrupted = corrupted


class _ListChannel:
    """The medium's contract over per-receiver reception lists."""

    def __init__(self, sim, placement):
        self.sim = sim
        self.placement = placement
        self.nodes = {}
        self.receptions = {}
        self.observers = []
        self.denied = set()
        self.fuzz_fn = None

    def attach(self, node):
        self.nodes[node.node_id] = node
        self.receptions[node.node_id] = []

    def deny_link(self, a, b):
        self.denied.add(frozenset((a, b)))

    def allow_link(self, a, b):
        self.denied.discard(frozenset((a, b)))

    def neighbors_of(self, node_id):
        now = self.sim.now
        x, y = self.placement.position(node_id, now)
        result = []
        for other in self.nodes:
            if other == node_id or not self.nodes[other].alive:
                continue
            if frozenset((node_id, other)) in self.denied:
                continue
            ox, oy = self.placement.position(other, now)
            if (ox - x) ** 2 + (oy - y) ** 2 <= RANGE * RANGE:
                result.append(other)
        return result

    def transmit(self, frame, duration):
        now = self.sim.now
        end = now + duration
        receiver_ids = self.neighbors_of(frame.sender)
        for obs in self.observers:
            obs(frame.sender, frame, receiver_ids)
        result = {"decoded": False}
        dst = frame.link_dst
        if (dst is not None and self.nodes[dst].alive
                and frozenset((frame.sender, dst)) not in self.denied):
            for nid in self.neighbors_of(dst):
                if nid != frame.sender:
                    self.nodes[nid].mac.set_nav(end)
        for rid in receiver_ids:
            mac = self.nodes[rid].mac
            mac.set_nav(end)
            corrupted = mac._current is not None and now < mac._tx_end
            for other in self.receptions[rid]:
                if other.end > now:
                    other.corrupted = True
                    corrupted = True
            delay, duplicate = 0.0, False
            fuzz = self.fuzz_fn and self.fuzz_fn(frame.sender, rid, frame)
            if fuzz:
                corrupted = corrupted or fuzz.corrupt
                delay, duplicate = max(0.0, fuzz.delay), fuzz.duplicate
            rec = _Reception(frame, end, corrupted)
            self.receptions[rid].append(rec)
            self.sim.schedule(duration + PROPAGATION_DELAY + delay,
                              self._complete, rid, rec, result)
            if duplicate and not corrupted:
                dup = _Reception(frame, end, False)
                self.receptions[rid].append(dup)
                self.sim.schedule(duration + 2 * PROPAGATION_DELAY + delay,
                                  self._complete, rid, dup, result)
        if dst is not None:
            sender = self.nodes[frame.sender]
            self.sim.schedule(
                duration + 2 * PROPAGATION_DELAY,
                lambda: sender.mac.on_tx_outcome(frame, result["decoded"]))
        return receiver_ids

    def crash(self, rid):
        """A radio powering off loses every frame still on the air at it."""
        for rec in self.receptions[rid]:
            if rec.end > self.sim.now:
                rec.corrupted = True

    def _complete(self, rid, rec, result):
        self.receptions[rid].remove(rec)
        receiver = self.nodes[rid]
        if rec.corrupted or not receiver.alive:
            return
        frame = rec.frame
        if frame.link_dst is None or frame.link_dst == rid:
            if frame.link_dst == rid:
                result["decoded"] = True
            receiver.mac.handle_frame(frame)
        elif receiver.mac.promiscuous_fn is not None:
            receiver.mac.promiscuous_fn(frame.packet, frame.sender,
                                        frame.link_dst)


class _Sink:
    """Routing stand-in: logs decoded and overheard copies in order."""

    def __init__(self, sim, node, log):
        self.sim = sim
        self.node = node
        self.log = log

    def start(self):
        self.node.mac.promiscuous_fn = self.overhear

    def stop(self):
        pass

    def on_packet(self, packet, from_id):
        self.log.append(("rx", self.sim.now, self.node.node_id, packet.tag,
                         from_id))

    def overhear(self, packet, sender, link_dst):
        self.log.append(("snoop", self.sim.now, self.node.node_id,
                         packet.tag, sender, link_dst))


def _program(seed, frames):
    """A seeded random program: topology plus timed operations."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    positions = {i: (rng.uniform(0.0, 550.0), rng.uniform(0.0, 200.0))
                 for i in range(n)}
    ops = []
    airings = []  # (start, end) of every frame generated so far
    t = 0.0
    for tag in range(frames):
        anchor = rng.random()
        if airings and anchor < 0.15:  # exactly at an earlier frame's end
            t = rng.choice(airings)[1]
        elif airings and anchor < 0.25:  # inside end .. completion
            t = rng.choice(airings)[1] + PROPAGATION_DELAY / 2
        elif airings and anchor < 0.4:  # same instant as the last frame
            t = airings[-1][0]
        elif airings and anchor < 0.6:  # mid-frame: an overlap
            start, end = airings[-1]
            t = start + (end - start) * rng.random()
        else:
            t = airings[-1][0] + rng.uniform(0.0, 4e-3) if airings else 0.0
        duration = rng.choice(_DURATIONS)
        sender = rng.randrange(n)
        link_dst = None
        if rng.random() < 0.5:
            link_dst = rng.choice([i for i in range(n) if i != sender])
        ops.append((t, "tx", (tag, sender, link_dst, duration)))
        airings.append((t, t + duration))
        roll = rng.random()
        if roll < 0.08:  # crash a node mid-frame, maybe reboot it in flight
            victim = rng.randrange(n)
            ops.append((t + duration / 2, "crash", victim))
            ops.append((t + duration * rng.choice((0.7, 3.0)), "reboot",
                        victim))
        elif roll < 0.14:
            a, b = rng.sample(range(n), 2)
            ops.append((t, "deny", (a, b)))
            ops.append((t + rng.uniform(0.0, 5e-3), "allow", (a, b)))
        elif roll < 0.2:
            ops.append((t, "fuzz", rng.random() < 0.7))
    fuzz = {(tag, rid): rng.choice(_FUZZ)
            for tag in range(frames) for rid in range(n)}
    ops.sort(key=lambda op: op[0])
    return positions, ops, fuzz


def _replay(program, model=False):
    """Run ``program`` on the channel (or the list model); return its log."""
    positions, ops, fuzz = program
    sim = Simulator(seed=0)
    placement = StaticPlacement(positions)
    if model:
        channel = _ListChannel(sim, placement)
    else:
        channel = WirelessChannel(sim, placement, RANGE)
    collector = MetricsCollector(sim)
    log = []
    nodes = {}
    for node_id in positions:
        node = Node(sim, node_id, channel, metrics=collector)
        node.routing_factory = lambda node: _Sink(sim, node, log)
        node.install_routing(node.routing_factory(node))
        node.start()
        node.mac.on_tx_outcome = (
            lambda frame, ok, node_id=node_id: log.append(
                ("ack", sim.now, node_id, frame.packet.tag, ok)))
        nodes[node_id] = node
    launched = []
    channel.observers.append(
        lambda sender, frame, receivers: launched.append(
            (receivers, list(receivers))))

    def scripted(sender, rid, frame):
        decision = fuzz[(frame.packet.tag, rid)]
        return None if decision is None else FuzzDecision(*decision)

    def run_op(kind, arg):
        if kind == "tx":
            tag, sender, link_dst, duration = arg
            node = nodes[sender]
            if not node.alive:
                return
            # What CsmaMac._attempt does before handing the frame over,
            # so later frames reach this radio mid-transmission.
            node.mac._current = _BUSY
            node.mac._tx_end = sim.now + duration
            channel.transmit(Frame(_Tagged(tag), sender, link_dst), duration)
        elif kind == "crash":
            if model and nodes[arg].alive:
                channel.crash(arg)
            nodes[arg].crash()
        elif kind == "reboot":
            nodes[arg].reboot()
        elif kind == "deny":
            channel.deny_link(*arg)
        elif kind == "allow":
            channel.allow_link(*arg)
        else:
            channel.fuzz_fn = scripted if arg else None

    for at, kind, arg in ops:
        sim.schedule_at(at, run_op, kind, arg)
    sim.run()
    if not model:
        # Receive counters are bumped once per completion batch.
        decoded = sum(1 for entry in log if entry[0] == "rx")
        assert collector.mac_receptions == decoded
        assert sim.profiler.counters.get("mac.frames_rx", 0) == decoded
        # The receiver list is the completion batch too: nothing may
        # have changed it after observers saw it.
        assert all(receivers == snapshot for receivers, snapshot in launched)
    navs = [(node_id, node.mac._nav) for node_id, node in nodes.items()]
    return log, navs


def _agree(seed, frames):
    program = _program(seed, frames)
    channel_log = _replay(program)
    assert channel_log == _replay(program, model=True)
    return channel_log[0]


@pytest.mark.parametrize("seed", range(24))
def test_channel_agrees_with_list_model(seed):
    _agree(seed, 40)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(24, 424))
def test_channel_agrees_with_list_model_wide_sweep(seed):
    _agree(seed, 120)


def test_quick_tier_exercises_every_outcome():
    # The sweep must reach snooping, fuzz duplicates and both unicast
    # outcomes, or agreement would be vacuous.
    kinds = set()
    for seed in range(24):
        log = _agree(seed, 40)
        kinds.update(entry[0] for entry in log)
        kinds.update(("ack", entry[4]) for entry in log if entry[0] == "ack")
        copies = [entry[2:4] for entry in log if entry[0] == "rx"]
        if len(copies) > len(set(copies)):
            kinds.add("duplicate")
    assert kinds >= {"rx", "snoop", "duplicate", ("ack", True),
                     ("ack", False)}


def _heard_at(receiver, positions, ops):
    """Tags ``receiver`` decoded, after both worlds agreed on the run."""
    program = positions, ops, {}
    outcome = _replay(program)
    assert outcome == _replay(program, model=True)
    return [entry[3] for entry in outcome[0]
            if entry[0] == "rx" and entry[2] == receiver]


# Hidden terminals 0 and 2 both reach 1 and cannot hear each other.
_LINE = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0)}


def _two_frames(second_at):
    return _heard_at(1, _LINE, [(0.0, "tx", (0, 0, None, 1e-3)),
                                (second_at, "tx", (1, 2, None, 1e-3))])


def test_frame_starting_at_another_frames_end_does_not_collide():
    assert _two_frames(0.0 + 1e-3) == [0, 1]


def test_frame_starting_before_completion_does_not_collide():
    assert _two_frames(1e-3 + PROPAGATION_DELAY / 2) == [0, 1]


def test_receiver_mid_transmission_misses_frame():
    # Node 1 is on the air when node 0's frame arrives (half duplex);
    # node 2's later frame still decodes.
    ops = [(0.0, "tx", (0, 1, None, 1e-3)),
           (5e-4, "tx", (1, 0, None, 1e-3)),
           (3e-3, "tx", (2, 2, None, 1e-3))]
    assert _heard_at(1, _LINE, ops) == [2]


def test_three_way_overlap_corrupts_all_three():
    positions = {**_LINE, 3: (200.0, 250.0)}
    ops = [(0.0, "tx", (0, 0, None, 1e-3)),
           (3e-4, "tx", (1, 2, None, 1e-3)),
           (6e-4, "tx", (2, 3, None, 1e-3)),
           (2e-3, "tx", (3, 0, None, 1e-3))]
    assert _heard_at(1, positions, ops) == [3]


def test_crash_mid_frame_loses_the_frame_even_after_reboot():
    ops = [(0.0, "tx", (0, 0, None, 1e-3)),
           (5e-4, "crash", 1),
           (7e-4, "reboot", 1),
           (2e-3, "tx", (1, 0, None, 1e-3)),
           (2.5e-3, "crash", 1),
           (4e-3, "reboot", 1),
           (5e-3, "tx", (2, 0, 1, 1e-3))]
    # Node 1's radio was off for part of frame 0, so it loses it although
    # it is back up when the frame completes; it is down when frame 1
    # completes.  The later unicast is acknowledged.
    assert _heard_at(1, _LINE, ops) == [2]
