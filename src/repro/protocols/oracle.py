"""An omniscient routing "protocol" — the delivery upper bound.

Not in the paper: a measurement instrument for this reproduction.  The
oracle reads the true topology out of the channel at every forwarding
decision and sends each packet along the current shortest path, with zero
control traffic and zero convergence delay.  Whatever it fails to deliver
was undeliverable (momentary partition or MAC loss); comparing any real
protocol's delivery ratio against the oracle's separates protocol-induced
loss from environment-induced loss (used by ``benchmarks/bench_oracle.py``
and EXPERIMENTS.md to contextualize Figures 2–5).
"""

from collections import deque

from repro.net.packet import DataPacket
from repro.routing.base import RoutingProtocol


class OracleConfig:
    """Oracle parameters (it barely has any)."""

    def __init__(self, data_hop_limit=64):
        self.data_hop_limit = data_hop_limit


class OracleProtocol(RoutingProtocol):
    """God-view shortest-path forwarding."""

    name = "oracle"

    def __init__(self, sim, node, config=None, metrics=None):
        super().__init__(sim, node, metrics)
        self.config = config or OracleConfig()

    def send_data(self, packet):
        if packet.dst == self.node_id:
            self.deliver_local(packet)
            return
        nxt = self._next_hop(packet.dst)
        if nxt is None:
            self.drop_data(packet, "partitioned")
            return
        self.unicast(packet, nxt, on_fail=self._on_data_link_failure)

    def on_packet(self, packet, from_id):
        if isinstance(packet, DataPacket) and self._transit(packet):
            self.send_data(packet)

    def successor(self, dst):
        return self._next_hop(dst)

    def route_metric(self, dst):
        """Explicitly None: the oracle keeps no routing state at all.

        Every forwarding decision is a fresh BFS over the true topology —
        there are no tables, sequence numbers, or feasible distances to
        order.  A shortest-path tree is acyclic by construction.
        """
        return None

    def _next_hop(self, dst):
        """BFS over the true topology, first hop of a shortest path."""
        channel = self.node.channel
        if self.node_id == dst:
            return None
        frontier = deque([(self.node_id, None)])
        visited = {self.node_id}
        while frontier:
            node, first_hop = frontier.popleft()
            for neighbor in channel.neighbors_of(node):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                hop = neighbor if first_hop is None else first_hop
                if neighbor == dst:
                    return hop
                frontier.append((neighbor, hop))
        return None

    def _on_data_link_failure(self, packet, next_hop):
        # The topology changed during the MAC exchange; recompute once.
        if isinstance(packet, DataPacket):
            nxt = self._next_hop(packet.dst)
            if nxt is not None and nxt != next_hop:
                self.unicast(packet, nxt, on_fail=lambda p, nh: self.drop_data(
                    p, "link_break"))
            else:
                self.drop_data(packet, "link_break")
