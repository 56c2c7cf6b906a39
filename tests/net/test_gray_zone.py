"""Tests for the optional gray-zone (lossy edge) channel model."""

from repro.mobility import StaticPlacement
from repro.net import GridIndex, Node, ScanIndex, WirelessChannel
from repro.net.packet import Frame, Packet
from repro.sim import Simulator


class _Sink:
    def __init__(self):
        self.received = []

    def on_packet(self, packet, from_id):
        self.received.append(packet)


def _build(positions, gray_zone):
    sim = Simulator(seed=9)
    channel = WirelessChannel(sim, StaticPlacement(positions),
                              gray_zone=gray_zone)
    nodes, sinks = {}, {}
    for node_id in positions:
        node = Node(sim, node_id, channel)
        sink = _Sink()
        node.mac.receive_fn = sink.on_packet
        nodes[node_id] = node
        sinks[node_id] = sink
    return sim, channel, nodes, sinks


def test_default_disk_is_crisp():
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (274, 0)}, gray_zone=0.0)
    for _ in range(20):
        channel.transmit(Frame(Packet(), 0, None), duration=1e-4)
        sim.run(until=sim.now + 0.01)
    assert len(sinks[1].received) == 20


def test_gray_zone_loses_some_edge_receptions():
    # 270 m of 275 m range with a 30% gray band: inner edge at 192.5 m,
    # loss probability ~0.47 per frame.
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (270, 0)},
                                        gray_zone=0.3)
    for _ in range(60):
        channel.transmit(Frame(Packet(), 0, None), duration=1e-4)
        sim.run(until=sim.now + 0.01)
    received = len(sinks[1].received)
    assert 5 < received < 55  # lossy but not dead


def test_gray_zone_spares_short_links():
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (100, 0)},
                                        gray_zone=0.3)
    for _ in range(20):
        channel.transmit(Frame(Packet(), 0, None), duration=1e-4)
        sim.run(until=sim.now + 0.01)
    assert len(sinks[1].received) == 20


class _FixedRng:
    """Deterministic stand-in for the channel's gray-zone stream."""

    def __init__(self, value):
        self.value = value
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.value


def test_inner_edge_is_lossless_and_draws_no_rng():
    # distance == inner edge exactly: outside the gray band, so the loss
    # path must return without consuming a random draw (draw *order* is
    # part of the determinism contract).
    gray_zone = 0.3
    inner = 275.0 * (1.0 - gray_zone)  # 192.5, exactly representable
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (inner, 0)},
                                        gray_zone=gray_zone)
    rng = _FixedRng(0.0)  # would lose every frame if consulted
    channel._gray_rng = rng
    assert channel._gray_zone_loss(0, 1, sim.now) is False
    assert rng.draws == 0


def test_outer_edge_loss_probability_caps_at_half():
    # distance == range exactly: frac = 1, loss iff draw < 0.5.
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (275.0, 0)},
                                        gray_zone=0.3)
    channel._gray_rng = _FixedRng(0.4999)
    assert channel._gray_zone_loss(0, 1, sim.now) is True
    channel._gray_rng = _FixedRng(0.5)
    assert channel._gray_zone_loss(0, 1, sim.now) is False


def test_just_inside_inner_edge_draws_once_with_tiny_probability():
    gray_zone = 0.3
    inner = 275.0 * (1.0 - gray_zone)
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (inner + 1e-6, 0)},
                                        gray_zone=gray_zone)
    rng = _FixedRng(0.25)
    channel._gray_rng = rng
    assert channel._gray_zone_loss(0, 1, sim.now) is False  # frac ~ 4e-9
    assert rng.draws == 1


def test_vanishing_gray_band_does_not_divide_by_zero():
    # gray_zone so small that range - inner underflows toward 0: the
    # 1e-9 denominator guard keeps the loss fraction finite and the
    # computation total.
    sim, channel, nodes, sinks = _build({0: (0, 0), 1: (275.0, 0)},
                                        gray_zone=1e-15)
    channel._gray_rng = _FixedRng(0.9)
    result = channel._gray_zone_loss(0, 1, sim.now)
    assert result in (True, False)  # total, no ZeroDivisionError


def test_gray_zone_losses_identical_across_index_backends():
    # Same seed, same geometry: the per-reception draw sequence (and so
    # the exact set of lost frames) must not depend on the index backend.
    outcomes = {}
    for index in (ScanIndex, GridIndex):
        sim = Simulator(seed=9)
        channel = WirelessChannel(
            sim, StaticPlacement({0: (0, 0), 1: (250, 0), 2: (265, 0)}),
            gray_zone=0.3, index=index)
        nodes, sinks = {}, {}
        for node_id in (0, 1, 2):
            node = Node(sim, node_id, channel)
            sink = _Sink()
            node.mac.receive_fn = sink.on_packet
            nodes[node_id] = node
            sinks[node_id] = sink
        for _ in range(80):
            channel.transmit(Frame(Packet(), 0, None), duration=1e-4)
            sim.run(until=sim.now + 0.01)
        outcomes[index] = (len(sinks[1].received), len(sinks[2].received))
    assert outcomes[GridIndex] == outcomes[ScanIndex]
    assert 0 < outcomes[GridIndex][1] < 80  # the band actually lost frames


def test_trace_json_roundtrip():
    import json

    from repro.experiments import ScenarioConfig, build_scenario
    from repro.obs import TraceRecorder

    scenario = build_scenario(ScenarioConfig(
        protocol="ldr", num_nodes=8, width=700.0, height=300.0,
        num_flows=1, duration=5.0, pause_time=0.0, seed=6))
    trace = TraceRecorder(scenario.sim).install(scenario)
    scenario.run()
    payload = json.loads(trace.to_json(kind="tx"))
    assert payload
    assert all(row["kind"] == "tx" for row in payload)
    assert all("t" in row and "node" in row for row in payload)
