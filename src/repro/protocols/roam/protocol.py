"""ROAM protocol engine: on-demand diffusing searches.

State per (node, destination): distance, feasible distance (minimum since
the route was obtained after a search), successor, and the distances each
neighbor last reported.  Three behaviours:

* **local repair** — losing the successor is silent when another neighbor
  reported a distance strictly below the feasible distance (the DUAL/SNC
  invariant, same as LDR's NDC with a fixed sequence number);
* **diffusing search** — otherwise the node becomes *active*: it reliably
  queries every neighbor and freezes until all have replied.  A passive
  neighbor with a feasible route answers its distance; one without
  propagates the search (deferring its reply to its first querier — the
  search tree parent — and answering later queriers conservatively with
  infinity).  When the last reply arrives the node resets its feasible
  distance, adopts the best reported neighbor, answers its own deferred
  queriers, and flushes buffered data;
* **expiry** — routes idle past their lifetime are dropped, keeping the
  protocol on-demand.

The reliable per-neighbor messaging and multi-hop freezing are the costs
the paper contrasts with LDR's coordination-free reset.
"""

from repro.net.packet import DataPacket, Packet
from repro.routing.base import PacketBuffer, RoutingProtocol

INFINITY = float("inf")
LINK_COST = 1


class RoamConfig:
    """ROAM parameters."""

    def __init__(
        self,
        hello_interval=1.0,
        neighbor_hold_time=3.5,
        route_lifetime=10.0,
        search_retries=2,
        search_timeout=4.0,
        data_hop_limit=64,
        buffer_capacity=64,
        buffer_max_age=30.0,
    ):
        self.hello_interval = hello_interval
        self.neighbor_hold_time = neighbor_hold_time
        self.route_lifetime = route_lifetime
        self.search_retries = search_retries
        self.search_timeout = search_timeout
        self.data_hop_limit = data_hop_limit
        self.buffer_capacity = buffer_capacity
        self.buffer_max_age = buffer_max_age


class RoamHello(Packet):
    kind = "hello"
    size_bytes = 8

    def __init__(self, origin):
        super().__init__()
        self.origin = origin


class RoamQuery(Packet):
    """Diffusing-search query (reliable unicast, per neighbor)."""

    kind = "rreq"
    size_bytes = 16

    def __init__(self, origin, dst):
        super().__init__()
        self.origin = origin
        self.dst = dst

    def __repr__(self):
        return "RoamQuery({} seeks {})".format(self.origin, self.dst)


class RoamReply(Packet):
    """Distance report answering a query."""

    kind = "rrep"
    size_bytes = 16

    def __init__(self, origin, dst, distance):
        super().__init__()
        self.origin = origin
        self.dst = dst
        self.distance = distance

    def __repr__(self):
        return "RoamReply({}: d({})={})".format(self.origin, self.dst,
                                                self.distance)


class _DestState:
    __slots__ = ("dist", "fd", "successor", "via", "active",
                 "pending_replies", "deferred", "expiry", "attempts",
                 "active_since")

    def __init__(self):
        self.dist = INFINITY
        self.fd = INFINITY
        self.successor = None
        self.via = {}
        self.active = False
        self.pending_replies = set()
        self.deferred = []
        self.expiry = 0.0
        self.attempts = 0
        self.active_since = 0.0


class RoamProtocol(RoutingProtocol):
    """ROAM on one node."""

    name = "roam"

    def __init__(self, sim, node, config=None, metrics=None):
        super().__init__(sim, node, metrics)
        self.config = config or RoamConfig()
        self.dests = {}
        self.neighbors = {}
        self.buffer = PacketBuffer(sim, self.config.buffer_capacity,
                                   self.config.buffer_max_age)
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle / neighbor sensing
    # ------------------------------------------------------------------
    def start(self):
        if self._started:
            return
        self._started = True
        self.sim.schedule(
            self._proto_rng.uniform(0, self.config.hello_interval),
            self._hello_tick,
        )

    def _hello_tick(self):
        if self.stopped:
            return
        now = self.sim.now
        for neighbor in [n for n, t in self.neighbors.items()
                         if now - t > self.config.neighbor_hold_time]:
            self._neighbor_lost(neighbor)
        for dst, state in self.dests.items():
            if state.active and now - state.active_since > self.config.search_timeout:
                state.pending_replies.clear()
                self._finish_search(dst, state)
        hello = RoamHello(self.node_id)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, hello)
        self.broadcast(hello)
        self.sim.schedule(self.config.hello_interval, self._hello_tick)

    def _heard(self, neighbor):
        self.neighbors[neighbor] = self.sim.now

    def _neighbor_lost(self, neighbor):
        if neighbor not in self.neighbors:
            return
        del self.neighbors[neighbor]
        for dst in list(self.dests):
            state = self.dests[dst]
            state.via.pop(neighbor, None)
            if state.active and neighbor in state.pending_replies:
                state.pending_replies.discard(neighbor)
                if not state.pending_replies:
                    self._finish_search(dst, state)
            elif state.successor == neighbor:
                self._repair(dst, state)

    def _on_ctrl_link_failure(self, packet, next_hop):
        self._neighbor_lost(next_hop)

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    def send_data(self, packet):
        if packet.dst == self.node_id:
            self.deliver_local(packet)
            return
        state = self._state(packet.dst)
        now = self.sim.now
        if (state.dist < INFINITY and state.successor in self.neighbors
                and now < state.expiry and not state.active):
            state.expiry = now + self.config.route_lifetime
            self.unicast(packet, state.successor,
                         on_fail=self._on_data_link_failure)
            return
        if not self.buffer.push(packet.dst, packet):
            self.drop_data(packet, "buffer_full")
        if not state.active:
            state.attempts = 0
            self._start_search(packet.dst, state)

    def on_packet(self, packet, from_id):
        if isinstance(packet, DataPacket):
            self._on_data(packet, from_id)
            return
        self._heard(from_id)
        if isinstance(packet, RoamQuery):
            self._on_query(packet, from_id)
        elif isinstance(packet, RoamReply):
            self._on_reply(packet, from_id)

    def successor(self, dst):
        state = self.dests.get(dst)
        if state is None or state.dist == INFINITY:
            return None
        return state.successor

    def route_metric(self, dst):
        if dst == self.node_id:
            return (0, 0, 0)
        state = self.dests.get(dst)
        if state is None or state.dist == INFINITY:
            return None
        return (0, state.fd, state.dist)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _on_data(self, packet, from_id):
        if not self._transit(packet):
            return
        state = self._state(packet.dst)
        if (state.dist < INFINITY and state.successor in self.neighbors
                and not state.active):
            state.expiry = self.sim.now + self.config.route_lifetime
            self.unicast(packet, state.successor,
                         on_fail=self._on_data_link_failure)
            return
        # DUAL-lineage route-loss signalling: tell the previous hop our
        # distance is infinite so its own repair/search machinery engages.
        self.drop_data(packet, "no_route")
        self._send_reply(packet.dst, from_id, INFINITY)

    def _on_data_link_failure(self, packet, next_hop):
        self._neighbor_lost(next_hop)
        if isinstance(packet, DataPacket):
            if packet.src == self.node_id:
                if self.buffer.push(packet.dst, packet):
                    state = self._state(packet.dst)
                    if not state.active and (
                        state.dist == INFINITY
                        or state.successor not in self.neighbors
                    ):
                        state.attempts = 0
                        self._start_search(packet.dst, state)
                    else:
                        self.sim.schedule(0.0, self._flush, packet.dst)
                else:
                    self.drop_data(packet, "buffer_full")
            else:
                self.drop_data(packet, "link_break")

    def _flush(self, dst):
        state = self._state(dst)
        if state.active or state.dist == INFINITY:
            return
        for packet in self.buffer.pop_all(dst, self.drop_data):
            self.unicast(packet, state.successor,
                         on_fail=self._on_data_link_failure)

    # ------------------------------------------------------------------
    # the invariant: silent repair when feasible
    # ------------------------------------------------------------------
    def _repair(self, dst, state):
        """Successor lost: switch silently iff SNC holds for someone."""
        best = None
        for neighbor, distance in state.via.items():
            if neighbor in self.neighbors and distance < state.fd:
                candidate = (neighbor, distance + LINK_COST)
                if best is None or candidate[1] < best[1]:
                    best = candidate
        if best is not None:
            state.successor, state.dist = best
            state.fd = min(state.fd, state.dist)
            self._notify_table_change(dst)
            return
        # No feasible alternative: the route is void until a search runs.
        state.dist = INFINITY
        state.successor = None
        self._notify_table_change(dst)
        if self.buffer.pending(dst):
            state.attempts = 0
            self._start_search(dst, state)

    # ------------------------------------------------------------------
    # diffusing search
    # ------------------------------------------------------------------
    def _state(self, dst):
        state = self.dests.get(dst)
        if state is None:
            state = _DestState()
            # repro-lint: disable=RL103 -- lazy creation of an empty state
            # with dist=INFINITY; successor(dst) is None before and after,
            # so no successor-graph edge appears without a later notify.
            self.dests[dst] = state
        return state

    def _start_search(self, dst, state):
        if state.active or dst == self.node_id:
            return
        audience = set(self.neighbors)
        if not audience:
            self._search_failed(dst, state)
            return
        state.active = True
        state.active_since = self.sim.now
        state.pending_replies = set(audience)
        # Sorted so the query fan-out order never depends on set hashing.
        for neighbor in sorted(audience):
            query = RoamQuery(self.node_id, dst)
            if self.metrics is not None:
                self.metrics.on_control_initiated(self.node_id, query)
            self.unicast(query, neighbor, on_fail=self._on_ctrl_link_failure)

    def _on_query(self, query, from_id):
        dst = query.dst
        if dst == self.node_id:
            self._send_reply(dst, from_id, 0)
            return
        state = self._state(dst)
        # A querying neighbor has no usable route: its old reports are void.
        state.via[from_id] = INFINITY
        if state.active:
            if from_id == state.successor:
                state.deferred.append(from_id)
            else:
                self._send_reply(dst, from_id, INFINITY)
            return
        if state.dist < INFINITY and state.successor in self.neighbors \
                and state.successor != from_id:
            self._send_reply(dst, from_id, state.dist)
            return
        if state.successor == from_id:
            self._repair(dst, state)
            if not state.active and state.dist < INFINITY:
                self._send_reply(dst, from_id, state.dist)
                return
            if state.active:
                state.deferred.append(from_id)
                return
        # No route: propagate the search, deferring the reply to this
        # querier — it becomes our parent in the search tree.
        state.deferred.append(from_id)
        self._start_search(dst, state)
        if not state.active:
            # Couldn't search (no other neighbors): answer immediately.
            state.deferred.remove(from_id)
            self._send_reply(dst, from_id, state.dist)

    def _on_reply(self, reply, from_id):
        dst = reply.dst
        state = self._state(dst)
        state.via[from_id] = reply.distance
        if not state.active:
            if reply.distance == INFINITY and state.successor == from_id:
                # Our successor reports it lost the route.
                self._repair(dst, state)
            return
        state.pending_replies.discard(from_id)
        if not state.pending_replies:
            self._finish_search(dst, state)

    def _finish_search(self, dst, state):
        state.active = False
        best = None
        for neighbor, distance in state.via.items():
            if neighbor in self.neighbors and distance < INFINITY:
                candidate = (neighbor, distance + LINK_COST)
                if best is None or candidate[1] < best[1]:
                    best = candidate
        if best is not None:
            state.successor, state.dist = best
            state.fd = state.dist
            state.expiry = self.sim.now + self.config.route_lifetime
            self._notify_table_change(dst)
        else:
            state.successor = None
            state.dist = INFINITY
            state.fd = INFINITY
        for neighbor in state.deferred:
            self._send_reply(dst, neighbor, state.dist)
        state.deferred = []
        if best is not None:
            self._flush(dst)
        else:
            self._search_failed(dst, state)

    def _search_failed(self, dst, state):
        if state.attempts < self.config.search_retries:
            state.attempts += 1
            delay = 0.25 * state.attempts
            self.sim.schedule(delay, self._retry_search, dst)
            return
        for packet in self.buffer.drop_all(dst):
            self.drop_data(packet, "no_route_found")

    def _retry_search(self, dst):
        state = self._state(dst)
        if not state.active and state.dist == INFINITY \
                and self.buffer.pending(dst):
            self._start_search(dst, state)

    def _send_reply(self, dst, neighbor, distance):
        reply = RoamReply(self.node_id, dst, distance)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, reply)
        self.unicast(reply, neighbor, on_fail=self._on_ctrl_link_failure)
