"""Unit tests for interface queues and the OLSR FIFO jitter queue."""

import random

from repro.net.queue import DropTailQueue
from repro.protocols.olsr.protocol import FifoJitterQueue
from repro.sim import Simulator


def test_droptail_fifo_order():
    q = DropTailQueue(capacity=10)
    for i in range(5):
        assert q.push(i)
    assert [q.pop() for _ in range(5)] == [0, 1, 2, 3, 4]


def test_droptail_capacity_and_drop_count():
    q = DropTailQueue(capacity=2)
    assert q.push("a")
    assert q.push("b")
    assert not q.push("c")
    assert q.drops == 1
    assert len(q) == 2


def test_droptail_empty_pop_and_length():
    q = DropTailQueue()
    assert q.pop() is None
    q.push("x")
    assert len(q) == 1


def test_jitter_queue_preserves_order():
    sim = Simulator(seed=1)
    sent = []
    q = FifoJitterQueue(sim, lambda x: sent.append(x), random.Random(99),
                        max_jitter=0.015)
    for i in range(50):
        q.push(i)
    sim.run()
    assert sent == list(range(50))


def test_jitter_queue_adds_bounded_delay():
    sim = Simulator(seed=1)
    times = []
    q = FifoJitterQueue(sim, lambda x: times.append(sim.now),
                        random.Random(5), max_jitter=0.015)
    q.push("only")
    sim.run()
    assert 0.0 <= times[0] <= 0.015


def test_jitter_queue_order_across_push_times():
    sim = Simulator(seed=1)
    sent = []
    q = FifoJitterQueue(sim, lambda x: sent.append(x), random.Random(3),
                        max_jitter=0.015)
    q.push("first")
    # Push the second a hair later; even if it draws a smaller jitter it
    # must not overtake the first.
    sim.schedule(0.001, q.push, "second")
    sim.run()
    assert sent == ["first", "second"]


def test_jitter_queue_passes_multiple_args():
    sim = Simulator(seed=1)
    sent = []
    q = FifoJitterQueue(sim, lambda a, b: sent.append((a, b)),
                        random.Random(3))
    q.push("x", 1)
    sim.run()
    assert sent == [("x", 1)]
