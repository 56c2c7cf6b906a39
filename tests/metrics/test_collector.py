"""Unit tests for the metrics collector."""

from repro.metrics import MetricsCollector
from repro.net.packet import DataPacket, Frame, Packet
from repro.sim import Simulator


class _Ctrl(Packet):
    kind = "rreq"


def _data(created_at=0.0):
    return DataPacket(src=0, dst=1, size_bytes=512, flow_id=0, seq=0,
                      created_at=created_at)


def test_data_counters_and_latency():
    sim = Simulator()
    collector = MetricsCollector(sim)
    packet = _data(created_at=0.0)
    collector.on_data_originated(0, packet)
    sim.scheduler._now = 0.5  # advance clock directly for the unit test
    collector.on_data_delivered(1, packet)
    assert collector.data_originated == 1
    assert collector.data_delivered == 1
    assert collector.latency_sum == 0.5


def test_duplicate_delivery_counted_once():
    collector = MetricsCollector(Simulator())
    packet = _data()
    collector.on_data_delivered(1, packet)
    collector.on_data_delivered(1, packet)
    assert collector.data_delivered == 1
    assert collector.duplicate_delivered == 1


def test_transmit_separates_control_and_data():
    collector = MetricsCollector()
    collector.on_transmit(0, _data())
    collector.on_transmit(0, _Ctrl())
    collector.on_transmit(0, _Ctrl(), retry=True)
    assert collector.data_transmissions == 1
    assert collector.control_transmissions["rreq"] == 2
    assert collector.mac_retries == 1


def test_control_initiated_by_kind():
    collector = MetricsCollector()
    collector.on_control_initiated(0, _Ctrl())
    assert collector.control_initiated["rreq"] == 1


def test_drop_reasons_tallied():
    collector = MetricsCollector()
    collector.on_data_dropped(0, _data(), "no_route")
    collector.on_data_dropped(0, _data(), "no_route")
    collector.on_data_dropped(0, _data(), "hop_limit")
    assert collector.data_dropped["no_route"] == 2
    assert collector.data_dropped["hop_limit"] == 1


def test_mac_events():
    collector = MetricsCollector()
    frame = Frame(_data(), 0, 1)
    collector.on_mac_receive(frame, 1)
    collector.on_queue_drop(0, frame.packet)
    collector.on_mac_give_up(0, frame.packet)
    assert collector.mac_receptions == 1
    assert collector.queue_drops == 1
    assert collector.mac_give_ups == 1


def test_usable_rrep_and_seqno_observations():
    collector = MetricsCollector()
    collector.on_usable_rrep(3)
    collector.on_usable_rrep(4)
    collector.observe_final_seqno(9, 12)
    assert collector.usable_rreps_received == 2
    assert collector.seqno_final == {9: 12}
