"""Unit tests for the routing base layer (packet buffer, helpers)."""

import pytest

from repro.core import LdrConfig, LdrProtocol
from repro.mobility import StaticPlacement
from repro.protocols import (
    AodvConfig,
    AodvProtocol,
    DsrConfig,
    DsrProtocol,
    RoamConfig,
    RoamProtocol,
    ToraConfig,
    ToraProtocol,
)
from repro.routing.base import PacketBuffer
from repro.sim import Simulator
from tests.conftest import Network


class _Pkt:
    def __init__(self, tag):
        self.tag = tag


def _no_drop(packet, reason):
    raise AssertionError("unexpected drop of %r (%s)" % (packet.tag, reason))


def test_buffer_push_and_pop_all():
    sim = Simulator()
    buf = PacketBuffer(sim)
    a, b = _Pkt("a"), _Pkt("b")
    assert buf.push(5, a)
    assert buf.push(5, b)
    assert buf.pop_all(5, _no_drop) == [a, b]
    assert buf.pop_all(5, _no_drop) == []


def test_buffer_is_per_destination():
    sim = Simulator()
    buf = PacketBuffer(sim)
    a, b = _Pkt("a"), _Pkt("b")
    buf.push(1, a)
    buf.push(2, b)
    assert buf.pop_all(1, _no_drop) == [a]
    assert buf.pop_all(2, _no_drop) == [b]


def test_buffer_capacity():
    sim = Simulator()
    buf = PacketBuffer(sim, capacity_per_dst=2)
    assert buf.push(1, _Pkt(0))
    assert buf.push(1, _Pkt(1))
    assert not buf.push(1, _Pkt(2))
    assert buf.pending(1) == 2


def test_buffer_drop_all():
    sim = Simulator()
    buf = PacketBuffer(sim)
    pkts = [_Pkt(i) for i in range(3)]
    for p in pkts:
        buf.push(9, p)
    assert buf.drop_all(9) == pkts
    assert buf.pending(9) == 0


def test_buffer_ages_out_stale_packets():
    sim = Simulator()
    buf = PacketBuffer(sim, max_age=10.0)
    old = _Pkt("old")
    buf.push(3, old)
    sim.run(until=20.0)
    fresh = _Pkt("fresh")
    buf.push(3, fresh)
    dropped = []
    assert buf.pop_all(3, lambda *args: dropped.append(args)) == [fresh]
    assert dropped == [(old, "buffer_expired")]


def test_buffer_destinations():
    sim = Simulator()
    buf = PacketBuffer(sim)
    buf.push(1, _Pkt("x"))
    buf.push(4, _Pkt("y"))
    assert sorted(buf.destinations()) == [1, 4]


def test_pending_unknown_destination_is_zero():
    assert PacketBuffer(Simulator()).pending(42) == 0


@pytest.mark.parametrize("protocol_cls, config_cls", [
    (LdrProtocol, LdrConfig),
    (AodvProtocol, AodvConfig),
    (DsrProtocol, DsrConfig),
    (ToraProtocol, ToraConfig),
    (RoamProtocol, RoamConfig),
], ids=["ldr", "aodv", "dsr", "tora", "roam"])
def test_buffered_data_that_ages_out_is_counted(protocol_cls, config_cls):
    # Every packet outlives a 1 us buffer age before its route exists, so
    # the flush must count each one as dropped: originated packets are
    # all delivered or dropped once the network is quiet.
    net = Network(protocol_cls, StaticPlacement.line(3, 200.0),
                  config=config_cls(buffer_max_age=1e-6))
    net.run(2.0)  # beacon-driven protocols learn their neighbours
    for _ in range(3):
        net.send(0, 2)
    net.run(30.0)
    dropped = net.metrics.data_dropped
    assert dropped["buffer_expired"] == 3
    assert net.metrics.data_originated == 3
    assert len(net.delivered) + sum(dropped.values()) == 3
