"""The paper's OLSR jitter fix: FIFO jitter vs plain (reordering) jitter."""

from repro import ScenarioConfig, run_scenario
from repro.mobility import StaticPlacement
from repro.protocols.olsr import OlsrConfig, OlsrProtocol
from repro.protocols.olsr.protocol import FifoJitterQueue, _PlainJitter
from tests.conftest import Network


def test_default_uses_fifo_jitter():
    net = Network(OlsrProtocol, StaticPlacement.line(2, 200.0))
    assert isinstance(net.protocols[0].jitter_queue, FifoJitterQueue)


def test_plain_jitter_selected_by_config():
    net = Network(OlsrProtocol, StaticPlacement.line(2, 200.0),
                  config=OlsrConfig(fifo_jitter=False))
    assert isinstance(net.protocols[0].jitter_queue, _PlainJitter)


def test_plain_jitter_can_reorder():
    """The pre-fix behaviour the paper calls out: packets may overtake."""
    from repro.sim import Simulator
    import random

    sent = []
    sim = Simulator()
    queue = _PlainJitter(sim, lambda x, _: sent.append(x),
                         random.Random(3), max_jitter=0.015)
    for i in range(50):
        queue.push(i, None)
    sim.run()
    assert sorted(sent) == list(range(50))
    assert sent != list(range(50))  # order NOT preserved


def test_both_variants_still_route():
    base = dict(num_nodes=15, width=800.0, height=300.0, num_flows=2,
                duration=25.0, pause_time=25.0, seed=9)
    fixed = run_scenario(ScenarioConfig(protocol="olsr", **base))
    broken = run_scenario(ScenarioConfig(
        protocol="olsr", protocol_config=OlsrConfig(fifo_jitter=False),
        **base))
    # On a static network both converge and deliver.
    assert fixed.delivery_ratio > 0.8
    assert broken.delivery_ratio > 0.5
