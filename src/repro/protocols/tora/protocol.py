"""TORA protocol engine (link-reversal routing).

Each node keeps, per destination, a *height*; links are directed from the
higher to the lower endpoint, forming a destination-oriented DAG on which
data flows downhill.  Heights are 5-tuples

    (tau, oid, r, delta, id)

compared lexicographically: ``(tau, oid, r)`` is the *reference level*
(creation time of the level, its originator, and the reflection bit) and
``(delta, id)`` orders nodes within a level.  The destination sits at the
zero height.

* **Route creation** — a node needing a route sets its route-required flag
  and broadcasts a QRY; the QRY propagates until it reaches a node with a
  height, which answers with an UPD carrying that height.  Route-required
  nodes adopt ``min neighbor height`` with ``delta + 1`` and broadcast
  their own UPD, unrolling the DAG back to the querier.
* **Route maintenance** — a node that loses its *last* downstream link
  defines a **new reference level** ``(now, self, 0)`` (a timestamp from
  the synchronized clock — here the simulator's global clock), which makes
  it higher than all neighbors and reverses the adjacent links; neighbors
  that in turn lose their last downstream link react the same way, so the
  reversal propagates exactly as far as needed.

Simplifications versus the full protocol, kept honest for the comparison
the paper makes (TORA's class of coordination overhead): the reflection
bit / partition-detection CLR machinery is replaced by a route-dissolve
timeout (a node stuck without downstream links for ``stale_route_timeout``
clears its height and lets the next packet re-query), and neighbor
sensing uses lightweight beacons standing in for IMEP.
"""

from repro.net.packet import DataPacket, Packet
from repro.routing.base import PacketBuffer, RoutingProtocol

ZERO = (0.0, 0, 0, 0, 0)  # destination's height pattern (id replaced)


class ToraConfig:
    """TORA parameters."""

    def __init__(
        self,
        beacon_interval=1.0,
        neighbor_hold_time=3.5,
        qry_retry_interval=1.0,
        qry_retries=3,
        stale_route_timeout=6.0,
        data_hop_limit=64,
        buffer_capacity=64,
        buffer_max_age=30.0,
    ):
        self.beacon_interval = beacon_interval
        self.neighbor_hold_time = neighbor_hold_time
        self.qry_retry_interval = qry_retry_interval
        self.qry_retries = qry_retries
        self.stale_route_timeout = stale_route_timeout
        self.data_hop_limit = data_hop_limit
        self.buffer_capacity = buffer_capacity
        self.buffer_max_age = buffer_max_age


class ToraBeacon(Packet):
    """IMEP-style neighbor-sensing beacon."""

    kind = "hello"
    size_bytes = 8

    def __init__(self, origin):
        super().__init__()
        self.origin = origin


class ToraQry(Packet):
    """Route-creation query for one destination."""

    kind = "rreq"
    size_bytes = 12

    def __init__(self, dst):
        super().__init__()
        self.dst = dst

    def __repr__(self):
        return "ToraQry(dst={})".format(self.dst)


class ToraUpd(Packet):
    """Height advertisement for one destination."""

    kind = "rrep"
    size_bytes = 28

    def __init__(self, dst, origin, height):
        super().__init__()
        self.dst = dst
        self.origin = origin
        self.height = height

    def __repr__(self):
        return "ToraUpd(dst={}, origin={}, h={})".format(
            self.dst, self.origin, self.height)


class _DestState:
    """Per-destination TORA state at one node."""

    __slots__ = ("height", "neighbor_heights", "route_required",
                 "qry_attempts", "last_downstream_at")

    def __init__(self):
        self.height = None
        self.neighbor_heights = {}
        self.route_required = False
        self.qry_attempts = 0
        self.last_downstream_at = 0.0


class ToraProtocol(RoutingProtocol):
    """TORA on one node."""

    name = "tora"

    def __init__(self, sim, node, config=None, metrics=None):
        super().__init__(sim, node, metrics)
        self.config = config or ToraConfig()
        self.dests = {}  # dst -> _DestState
        self.neighbors = {}  # neighbor -> last heard
        self.buffer = PacketBuffer(sim, self.config.buffer_capacity,
                                   self.config.buffer_max_age)
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._started:
            return
        self._started = True
        self.sim.schedule(
            self._proto_rng.uniform(0, self.config.beacon_interval),
            self._beacon_tick,
        )

    def _beacon_tick(self):
        if self.stopped:
            return
        now = self.sim.now
        for neighbor in [n for n, t in self.neighbors.items()
                         if now - t > self.config.neighbor_hold_time]:
            self._neighbor_lost(neighbor)
        self._dissolve_stale_routes(now)
        beacon = ToraBeacon(self.node_id)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, beacon)
        self.broadcast(beacon)
        self.sim.schedule(self.config.beacon_interval, self._beacon_tick)

    def _dissolve_stale_routes(self, now):
        """Partition stand-in: clear heights stuck without downstream."""
        for dst, state in self.dests.items():
            if (
                state.height is not None
                and dst != self.node_id
                and self._downstream(dst, state) is None
                and now - state.last_downstream_at > self.config.stale_route_timeout
            ):
                state.height = None
                self._notify_table_change(dst)

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    def send_data(self, packet):
        if packet.dst == self.node_id:
            self.deliver_local(packet)
            return
        state = self._state(packet.dst)
        nxt = self._downstream(packet.dst, state)
        if state.height is not None and nxt is not None:
            self.unicast(packet, nxt, on_fail=self._on_data_link_failure)
            return
        if not self.buffer.push(packet.dst, packet):
            self.drop_data(packet, "buffer_full")
        self._require_route(packet.dst, state)

    def on_packet(self, packet, from_id):
        if isinstance(packet, DataPacket):
            self._on_data(packet, from_id)
            return
        self._heard(from_id)
        if isinstance(packet, ToraQry):
            self._on_qry(packet, from_id)
        elif isinstance(packet, ToraUpd):
            self._on_upd(packet, from_id)

    def successor(self, dst):
        state = self.dests.get(dst)
        if state is None or state.height is None:
            return None
        return self._downstream(dst, state)

    def route_metric(self, dst):
        """Explicitly None: TORA orders nodes by heights, not by the
        paper's (sn, fd) labels.

        Loop freedom comes from the total order on heights (links are
        directed from higher to lower), which the acyclicity walk already
        exercises; there is no sequence-number/feasible-distance pair for
        the LDR ordering audit to check.
        """
        return None

    # ------------------------------------------------------------------
    # heights and the DAG
    # ------------------------------------------------------------------
    def _state(self, dst):
        state = self.dests.get(dst)
        if state is None:
            state = _DestState()
            if dst == self.node_id:
                state.height = (0.0, 0, 0, 0, self.node_id)
            # repro-lint: disable=RL103 -- lazy creation: height is None
            # (no downstream link exists) except for this node's own zero
            # height, and the audit walk stops at the destination itself.
            self.dests[dst] = state
        return state

    def _downstream(self, dst, state):
        """Neighbor with the lowest height below ours, or None."""
        if state.height is None:
            return None
        best = None
        for neighbor, height in state.neighbor_heights.items():
            if neighbor not in self.neighbors or height is None:
                continue
            if height < state.height and (best is None or height < best[1]):
                best = (neighbor, height)
        if best is not None:
            state.last_downstream_at = self.sim.now
            return best[0]
        return None

    def _set_height(self, dst, state, height):
        if state.height == height:
            return
        state.height = height
        self._notify_table_change(dst)
        self._broadcast_upd(dst, height)

    def _broadcast_upd(self, dst, height):
        upd = ToraUpd(dst, self.node_id, height)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, upd)
        self.broadcast(upd)

    # ------------------------------------------------------------------
    # route creation
    # ------------------------------------------------------------------
    def _require_route(self, dst, state):
        if state.route_required:
            return
        state.route_required = True
        state.qry_attempts = 0
        self._send_qry(dst, state)

    def _send_qry(self, dst, state):
        if not state.route_required:
            return
        state.qry_attempts += 1
        qry = ToraQry(dst)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, qry)
        self.broadcast(qry)
        if state.qry_attempts <= self.config.qry_retries:
            self.sim.schedule(
                self.config.qry_retry_interval, self._qry_timeout, dst)
        else:
            self.sim.schedule(
                self.config.qry_retry_interval, self._qry_give_up, dst)

    def _qry_timeout(self, dst):
        state = self._state(dst)
        if state.route_required and state.height is None:
            self._send_qry(dst, state)

    def _qry_give_up(self, dst):
        state = self._state(dst)
        if state.route_required and state.height is None:
            state.route_required = False
            for packet in self.buffer.drop_all(dst):
                self.drop_data(packet, "no_route_found")

    def _on_qry(self, qry, from_id):
        dst = qry.dst
        state = self._state(dst)
        if state.height is not None:
            # We are on the DAG (possibly the destination): answer.
            self._broadcast_upd(dst, state.height)
            return
        if state.route_required:
            return  # already propagated this need
        state.route_required = True
        out = ToraQry(dst)
        self.broadcast(out, jitter=0.01)

    def _on_upd(self, upd, from_id):
        dst = upd.dst
        state = self._state(dst)
        state.neighbor_heights[from_id] = upd.height
        if dst == self.node_id:
            return
        if state.route_required:
            self._adopt_from_neighbors(dst, state)
        elif state.height is not None and self._downstream(dst, state) is None:
            # Our last downstream link just reversed away: maintenance.
            self._maintenance(dst, state)

    def _adopt_from_neighbors(self, dst, state):
        candidates = [
            h for n, h in state.neighbor_heights.items()
            if h is not None and n in self.neighbors
        ]
        if not candidates:
            return
        tau, oid, r, delta, _ = min(candidates)
        state.route_required = False
        state.last_downstream_at = self.sim.now
        self._set_height(dst, state, (tau, oid, r, delta + 1, self.node_id))
        entry_state = self.dests[dst]
        nxt = self._downstream(dst, entry_state)
        if nxt is not None:
            for packet in self.buffer.pop_all(dst, self.drop_data):
                self.unicast(packet, nxt, on_fail=self._on_data_link_failure)

    # ------------------------------------------------------------------
    # route maintenance (link reversal)
    # ------------------------------------------------------------------
    def _maintenance(self, dst, state):
        """Lost the last downstream link: define a new reference level."""
        if state.height is None or dst == self.node_id:
            return
        if not self.neighbors:
            state.height = None
            self._notify_table_change(dst)
            return
        new_height = (self.sim.now, self.node_id, 0, 0, self.node_id)
        state.last_downstream_at = self.sim.now
        self._set_height(dst, state, new_height)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _on_data(self, packet, from_id):
        if self._transit(packet):
            self.send_data(packet)

    def _on_data_link_failure(self, packet, next_hop):
        self._neighbor_lost(next_hop)
        if isinstance(packet, DataPacket):
            if packet.src == self.node_id:
                state = self._state(packet.dst)
                if self.buffer.push(packet.dst, packet):
                    if self._downstream(packet.dst, state) is None:
                        self._require_route(packet.dst, state)
                    else:
                        self.sim.schedule(0.0, self._flush, packet.dst)
                else:
                    self.drop_data(packet, "buffer_full")
            else:
                self.drop_data(packet, "link_break")

    def _flush(self, dst):
        state = self._state(dst)
        nxt = self._downstream(dst, state)
        if nxt is None:
            self._require_route(dst, state)
            return
        for packet in self.buffer.pop_all(dst, self.drop_data):
            self.unicast(packet, nxt, on_fail=self._on_data_link_failure)

    # ------------------------------------------------------------------
    # neighbor management
    # ------------------------------------------------------------------
    def _heard(self, neighbor):
        self.neighbors[neighbor] = self.sim.now

    def _neighbor_lost(self, neighbor):
        if neighbor not in self.neighbors:
            return
        del self.neighbors[neighbor]
        for dst, state in self.dests.items():
            had = neighbor in state.neighbor_heights
            state.neighbor_heights.pop(neighbor, None)
            if (
                had
                and state.height is not None
                and dst != self.node_id
                and self._downstream(dst, state) is None
            ):
                self._maintenance(dst, state)
