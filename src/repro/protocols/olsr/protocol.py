"""OLSR protocol engine.

Proactive: periodic HELLOs (link sensing + MPR signalling) and MPR-flooded
TC messages build a partial topology graph; each change snapshots it, and a
unit-cost BFS solves the routes when they are next read.  Control
transmissions pass through the paper's order-preserving jitter queue.
"""

from collections import deque

from repro.net.packet import DataPacket
from repro.net.queue import FifoJitterQueue
from repro.protocols.olsr.messages import OlsrHello, OlsrTc
from repro.protocols.olsr.neighbor import NeighborState
from repro.routing.base import RoutingProtocol


class OlsrConfig:
    """OLSR parameters (draft-06 defaults, jitter per the paper)."""

    def __init__(
        self,
        hello_interval=2.0,
        tc_interval=5.0,
        neighbor_hold_time=6.0,
        topology_hold_time=15.0,
        max_jitter=0.015,
        fifo_jitter=True,
        duplicate_hold_time=30.0,
        route_recompute_delay=0.1,
        data_hop_limit=64,
    ):
        self.hello_interval = hello_interval
        self.tc_interval = tc_interval
        self.neighbor_hold_time = neighbor_hold_time
        self.topology_hold_time = topology_hold_time
        self.max_jitter = max_jitter
        # The paper's fix to the INRIA code: order-preserving jitter.
        # False reverts to plain per-packet jitter, which can reorder
        # control packets (the behaviour the paper found harmful).
        self.fifo_jitter = fifo_jitter
        self.duplicate_hold_time = duplicate_hold_time
        self.route_recompute_delay = route_recompute_delay
        self.data_hop_limit = data_hop_limit


class _PlainJitter:
    """The INRIA behaviour before the paper's fix: per-packet jitter
    with no ordering guarantee, so control packets can overtake each
    other."""

    def __init__(self, sim, send_fn, rng, max_jitter):
        self.sim = sim
        self.send_fn = send_fn
        self.rng = rng
        self.max_jitter = max_jitter

    def push(self, *send_args):
        self.sim.schedule(self.rng.uniform(0.0, self.max_jitter),
                          self.send_fn, *send_args)


class TopologyEntry:
    __slots__ = ("origin", "selector", "ansn", "expiry")

    def __init__(self, origin, selector, ansn, expiry):
        self.origin = origin
        self.selector = selector
        self.ansn = ansn
        self.expiry = expiry


class OlsrProtocol(RoutingProtocol):
    """Optimized Link State Routing on one node."""

    name = "olsr"

    def __init__(self, sim, node, config=None, metrics=None):
        super().__init__(sim, node, metrics)
        self.config = config or OlsrConfig()
        self.neighbors = NeighborState(self.node_id)
        self.topology = {}  # (origin, selector) -> TopologyEntry
        self._origin_keys = {}  # origin -> {its topology keys: None}
        self._ansn = 0
        self._dups = {}  # (origin, ansn) -> expiry
        self._rng = sim.stream("olsr.%d" % self.node_id)
        if self.config.fifo_jitter:
            self.jitter_queue = FifoJitterQueue(
                sim, self._transmit_control, self._rng,
                self.config.max_jitter,
            )
        else:
            self.jitter_queue = _PlainJitter(
                sim, self._transmit_control, self._rng,
                self.config.max_jitter,
            )
        self._routes = {}  # dst -> (next_hop, hops), as last solved
        self._snapshot = None  # (now, sym neighbors, entries) to solve
        self._recompute_pending = False
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._started:
            return
        self._started = True
        # Desynchronize periodic emissions across nodes.
        self.sim.schedule(
            self._rng.uniform(0, self.config.hello_interval), self._hello_tick
        )
        self.sim.schedule(
            self._rng.uniform(0, self.config.tc_interval), self._tc_tick
        )

    def _hello_tick(self):
        if self.stopped:
            return
        now = self.sim.now
        self.neighbors.expire(now)
        self.neighbors.select_mprs(now)
        hello = OlsrHello(
            self.node_id,
            self.neighbors.symmetric_neighbors(now),
            self.neighbors.heard_only_neighbors(now),
            self.neighbors.mprs,
        )
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, hello)
        self.jitter_queue.push(hello, None)
        self.sim.schedule(self.config.hello_interval, self._hello_tick)

    def _tc_tick(self):
        if self.stopped:
            return
        now = self.sim.now
        selectors = self.neighbors.selectors(now)
        if selectors:
            self._ansn += 1
            tc = OlsrTc(self.node_id, self._ansn, selectors)
            self._dups[(self.node_id, self._ansn)] = (
                now + self.config.duplicate_hold_time
            )
            if self.metrics is not None:
                self.metrics.on_control_initiated(self.node_id, tc)
            self.jitter_queue.push(tc, None)
        self.sim.schedule(self.config.tc_interval, self._tc_tick)

    def _transmit_control(self, packet, _next_hop):
        self.broadcast(packet)

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    @property
    def routes(self):
        """The current route table: dst -> (next_hop, hops)."""
        if self._snapshot is not None:
            self._solve()
        return self._routes

    def send_data(self, packet):
        if packet.dst == self.node_id:
            self.deliver_local(packet)
            return
        route = self.routes.get(packet.dst)
        if route is None:
            self.drop_data(packet, "no_route")
            return
        self.unicast(packet, route[0], on_fail=self._on_data_link_failure)

    def on_packet(self, packet, from_id):
        if isinstance(packet, DataPacket):
            self._on_data(packet, from_id)
        elif isinstance(packet, OlsrHello):
            self._on_hello(packet, from_id)
        elif isinstance(packet, OlsrTc):
            self._on_tc(packet, from_id)

    def successor(self, dst):
        # Reads the backing state itself, not through ``routes``, so that
        # RL103 audits every write to it.
        if self._snapshot is not None:
            self._solve()
        route = self._routes.get(dst)
        return route[0] if route is not None else None

    def route_metric(self, dst):
        """Explicitly None: OLSR is link-state, not distance-vector.

        Routes come from a shortest-path computation over the topology
        database; there are no per-destination sequence numbers or
        feasible distances for the LDR ordering audit to compare.  The
        loop checker audits the BFS-derived successor graph for
        acyclicity only.
        """
        return None

    def _on_data(self, packet, from_id):
        packet.hops += 1  # one link traversed, even when we are the sink
        if packet.dst == self.node_id:
            self.deliver_local(packet)
            return
        if packet.hops > self.config.data_hop_limit:
            self.drop_data(packet, "hop_limit")
            return
        route = self.routes.get(packet.dst)
        if route is None:
            self.drop_data(packet, "no_route")
            return
        self.unicast(packet, route[0], on_fail=self._on_data_link_failure)

    def _on_data_link_failure(self, packet, next_hop):
        # Proactive repair: drop the link now rather than waiting for the
        # neighbor hold time, then let the next HELLO/TC cycle rebuild.
        link = self.neighbors.links.pop(next_hop, None)
        if link is not None:
            self.neighbors.two_hop.pop(next_hop, None)
            self._schedule_recompute()
        if isinstance(packet, DataPacket):
            self.drop_data(packet, "link_break")

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _on_hello(self, hello, from_id):
        changed = self.neighbors.on_hello(
            hello, self.sim.now, self.config.neighbor_hold_time
        )
        if changed:
            self._schedule_recompute()

    def _on_tc(self, tc, from_id):
        now = self.sim.now
        key = (tc.origin, tc.ansn)
        if tc.origin == self.node_id:
            return
        if key in self._dups and self._dups[key] > now:
            return
        self._dups[key] = now + self.config.duplicate_hold_time
        if len(self._dups) > 1024:
            self._dups = {k: v for k, v in self._dups.items() if v > now}

        # Purge older advertisements from this originator, install the new.
        changed = False
        keys = self._origin_keys.setdefault(tc.origin, {})
        for entry_key in [k for k in keys if self.topology[k].ansn < tc.ansn]:
            del self.topology[entry_key]
            del keys[entry_key]
            changed = True
        expiry = now + self.config.topology_hold_time
        for selector in tc.selectors:
            entry_key = (tc.origin, selector)
            if entry_key not in self.topology:
                changed = True
                keys[entry_key] = None
            self.topology[entry_key] = TopologyEntry(
                tc.origin, selector, tc.ansn, expiry
            )
        if changed:
            self._schedule_recompute()

        # MPR forwarding rule: retransmit only if the sender selected us
        # as one of its MPRs.
        if from_id in self.neighbors.selectors(now) and tc.ttl > 1:
            out = tc.copy()
            out.ttl = tc.ttl - 1
            self.jitter_queue.push(out, None)

    # ------------------------------------------------------------------
    # route calculation (BFS over the partial topology graph)
    # ------------------------------------------------------------------
    def _schedule_recompute(self):
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.schedule(self.config.route_recompute_delay, self._recompute)

    def _recompute(self):
        self._recompute_pending = False
        hooked = self.table_change_hook is not None
        # Reading routes solves a snapshot left pending before the hook
        # was installed, so the diff starts from the table as it stood.
        old = self.routes if hooked else None
        now = self.sim.now
        # Entries are replaced, never mutated, so copying the value list
        # freezes the graph exactly as it stands now.
        self._snapshot = (
            now,
            self.neighbors.symmetric_neighbors(now),
            list(self.topology.values()),
        )
        if not hooked:
            return
        routes = self.routes
        for dst in set(old) | set(routes):
            if old.get(dst) != routes.get(dst):
                self._notify_table_change(dst)

    # repro-lint: disable=RL103 -- installs the table _recompute already
    # replaced: every reader solves before it reads, and the change was
    # announced in _recompute if a hook was listening.
    def _solve(self):
        """Solve the pending snapshot's table by BFS from this node."""
        now, neighbors, entries = self._snapshot
        self._snapshot = None
        graph = {}

        def add_edge(a, b):
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set()).add(a)

        # Edge order fixes each set's iteration order, and with it which
        # first hop wins a BFS tie.
        for neighbor in neighbors:
            add_edge(self.node_id, neighbor)
        for entry in entries:
            if entry.expiry > now:
                add_edge(entry.origin, entry.selector)

        routes = {}
        # BFS from self; all links have unit cost.
        frontier = deque([(self.node_id, None, 0)])
        visited = {self.node_id}
        while frontier:
            node, first_hop, hops = frontier.popleft()
            for nxt in graph.get(node, ()):
                if nxt in visited:
                    continue
                visited.add(nxt)
                hop_via = nxt if first_hop is None else first_hop
                routes[nxt] = (hop_via, hops + 1)
                frontier.append((nxt, hop_via, hops + 1))
        self._routes = routes
