"""DUAL protocol engine (pro-active, coordination-based loop freedom).

Per destination a node keeps a *topology table* (every neighbor's last
advertised distance), its own distance, its **feasible distance** (the
historical minimum) and a successor.  Route changes are:

* **local** when the Source Node Condition holds — some neighbor's
  advertised distance is strictly below the feasible distance; the node
  may switch to it unilaterally (no loop possible: the neighbor is
  provably closer than this node ever was); or
* **diffusing** otherwise — the node goes *active*: it queries every
  neighbor, freezes its route, and only when **all** replies are in may it
  reset its feasible distance and pick a new successor.  Replies to
  queries received while active are deferred until the node's own
  computation terminates, which is how the synchronization spans multiple
  hops.

Queries and replies ride reliable (ARQ) unicasts, matching DUAL's
reliable-neighbor-communication requirement; updates are one-hop
broadcasts.  This is the simplified single-pending-computation variant
(one active computation per destination, queries during activity answered
from the frozen state), sufficient for measuring what coordination costs
in a mobile network — the comparison the paper's introduction makes.
"""

from repro.net.packet import DataPacket
from repro.protocols.dual.messages import DualHello, DualQuery, DualReply, DualUpdate
from repro.routing.base import RoutingProtocol

INFINITY = float("inf")
LINK_COST = 1


class DualConfig:
    """DUAL parameters."""

    def __init__(
        self,
        hello_interval=1.0,
        neighbor_hold_time=3.5,
        data_hop_limit=64,
        active_timeout=10.0,
    ):
        self.hello_interval = hello_interval
        self.neighbor_hold_time = neighbor_hold_time
        self.data_hop_limit = data_hop_limit
        # Stuck-in-active guard: if a neighbor never replies (it left and
        # we haven't noticed), the computation force-terminates.
        self.active_timeout = active_timeout


class _DestState:
    """All DUAL state for one destination at one node."""

    __slots__ = ("dist", "fd", "successor", "via", "active",
                 "pending_replies", "deferred", "active_since")

    def __init__(self):
        self.dist = INFINITY
        self.fd = INFINITY
        self.successor = None
        self.via = {}  # neighbor -> advertised distance
        self.active = False
        self.pending_replies = set()
        self.deferred = []  # neighbors owed a reply
        self.active_since = 0.0


class DualProtocol(RoutingProtocol):
    """DUAL on one node."""

    name = "dual"

    def __init__(self, sim, node, config=None, metrics=None):
        super().__init__(sim, node, metrics)
        self.config = config or DualConfig()
        self.dests = {}  # dst -> _DestState
        self.neighbors = {}  # neighbor -> last-heard time
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._started:
            return
        self._started = True
        self.sim.schedule(self._proto_rng.uniform(0, self.config.hello_interval),
                          self._hello_tick)

    def _hello_tick(self):
        if self.stopped:
            return
        now = self.sim.now
        # Expire silent neighbors.
        for neighbor in [n for n, t in self.neighbors.items()
                         if now - t > self.config.neighbor_hold_time]:
            self._neighbor_lost(neighbor)
        hello = DualHello(self.node_id)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, hello)
        self.broadcast(hello)
        self._check_stuck_actives(now)
        self.sim.schedule(self.config.hello_interval, self._hello_tick)

    def _check_stuck_actives(self, now):
        for dst, state in self.dests.items():
            if state.active and now - state.active_since > self.config.active_timeout:
                state.pending_replies.clear()
                self._finish_active(dst, state)

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    def send_data(self, packet):
        if packet.dst == self.node_id:
            self.deliver_local(packet)
            return
        state = self.dests.get(packet.dst)
        if state is None or state.successor is None or state.dist == INFINITY:
            self.drop_data(packet, "no_route")
            return
        self.unicast(packet, state.successor, on_fail=self._on_data_link_failure)

    def on_packet(self, packet, from_id):
        if isinstance(packet, DataPacket):
            self._on_data(packet, from_id)
            return
        self._heard(from_id)
        if isinstance(packet, DualUpdate):
            self._on_update(packet, from_id)
        elif isinstance(packet, DualQuery):
            self._on_query(packet, from_id)
        elif isinstance(packet, DualReply):
            self._on_reply(packet, from_id)
        elif isinstance(packet, DualHello):
            pass  # _heard() did the work

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
        # Constant sequence number: DUAL has no resets, the fd ordering
        # must hold unconditionally.
        return (0, state.fd, state.dist)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _on_data(self, packet, from_id):
        if self._transit(packet):
            self.send_data(packet)

    def _on_data_link_failure(self, packet, next_hop):
        self._neighbor_lost(next_hop)
        if isinstance(packet, DataPacket):
            self.drop_data(packet, "link_break")

    # ------------------------------------------------------------------
    # neighbor management
    # ------------------------------------------------------------------
    def _heard(self, neighbor):
        is_new = neighbor not in self.neighbors
        self.neighbors[neighbor] = self.sim.now
        if is_new:
            self._on_new_neighbor(neighbor)

    def _on_new_neighbor(self, neighbor):
        # Synchronize: advertise our whole table (plus ourselves) to it.
        entries = {self.node_id: 0}
        for dst, state in self.dests.items():
            if state.dist < INFINITY:
                entries[dst] = state.dist
        update = DualUpdate(self.node_id, entries)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, update)
        self.unicast(update, neighbor, on_fail=self._on_ctrl_link_failure)
        # A new link may shorten routes: their distances reach us via the
        # neighbor's own synchronizing update.

    def _neighbor_lost(self, neighbor):
        if neighbor not in self.neighbors:
            return
        del self.neighbors[neighbor]
        for dst in list(self.dests):
            state = self.dests[dst]
            state.via.pop(neighbor, None)
            if state.active and neighbor in state.pending_replies:
                # A dead neighbor cannot reply; DUAL treats that as an
                # implicit infinite-distance reply.
                state.pending_replies.discard(neighbor)
                if not state.pending_replies:
                    self._finish_active(dst, state)
            if not state.active and state.successor == neighbor:
                self._reconsider(dst)

    def _on_ctrl_link_failure(self, packet, next_hop):
        self._neighbor_lost(next_hop)

    # ------------------------------------------------------------------
    # DUAL machinery
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

    def _on_update(self, update, from_id):
        for dst, distance in update.entries.items():
            if dst == self.node_id:
                continue
            state = self._state(dst)
            if state.via.get(from_id) == distance:
                continue
            state.via[from_id] = distance
            if not state.active:
                self._reconsider(dst)

    def _on_query(self, query, from_id):
        dst = query.dst
        if dst == self.node_id:
            self._send_reply(dst, from_id, 0)
            return
        state = self._state(dst)
        # A querying neighbor has, by definition, no feasible route left:
        # its carried distance runs through the very breakage being
        # computed around.  Recording it as unreachable keeps concurrent
        # computations from stitching each other's stale paths into loops
        # (the conservative stand-in for DUAL's full origin-state logic).
        state.via[from_id] = INFINITY
        if state.active:
            if from_id == state.successor:
                # A query from our own successor: defer the reply until our
                # own computation terminates (DUAL's o-state bookkeeping).
                state.deferred.append(from_id)
            else:
                # Answer conservatively: while active our own distance is
                # not trustworthy either.
                self._send_reply(dst, from_id, INFINITY)
            return
        if from_id == state.successor:
            # Successor's distance changed: our route through it is void
            # until we re-evaluate with the querier excluded.
            feasible = self._best_feasible(state, exclude=from_id)
        else:
            feasible = self._best_feasible(state)
        if feasible is not None:
            self._adopt(dst, state, *feasible)
            self._send_reply(dst, from_id, state.dist)
        else:
            # No feasible successor: start our own diffusing computation
            # and owe this neighbor a reply until it terminates.
            state.deferred.append(from_id)
            self._go_active(dst, state)

    def _on_reply(self, reply, from_id):
        dst = reply.dst
        state = self._state(dst)
        state.via[from_id] = reply.distance
        if not state.active:
            return
        state.pending_replies.discard(from_id)
        if not state.pending_replies:
            self._finish_active(dst, state)

    def _reconsider(self, dst):
        """Passive-state reaction to a topology-table change."""
        state = self.dests[dst]
        feasible = self._best_feasible(state)
        if feasible is not None:
            self._adopt(dst, state, *feasible)
            return
        if state.dist == INFINITY and not any(
            d < INFINITY for d in state.via.values()
        ):
            return  # unreachable and nobody claims otherwise: stay quiet
        self._go_active(dst, state)

    def _best_feasible(self, state, exclude=None):
        """Best neighbor satisfying SNC, or None.

        Returns ``(neighbor, new_distance)``; SNC requires the neighbor's
        advertised distance to be *strictly below* our feasible distance.
        """
        best = None
        for neighbor, advertised in state.via.items():
            if neighbor == exclude:
                continue
            if neighbor not in self.neighbors or advertised >= state.fd:
                continue
            candidate = advertised + LINK_COST
            if best is None or candidate < best[1]:
                best = (neighbor, candidate)
        return best

    def _adopt(self, dst, state, neighbor, new_distance):
        changed = (state.successor != neighbor or state.dist != new_distance)
        state.successor = neighbor
        state.dist = new_distance
        state.fd = min(state.fd, new_distance)
        if changed:
            self._notify_table_change(dst)
            self._advertise(dst, state.dist)

    def _go_active(self, dst, state):
        if state.active:
            return
        audience = set(self.neighbors)
        if not audience:
            self._clear_route(dst, state)
            return
        state.active = True
        state.active_since = self.sim.now
        state.pending_replies = set(audience)
        # Freeze at the best (possibly infeasible) distance we can see.
        best = None
        for neighbor, advertised in state.via.items():
            if neighbor in self.neighbors and advertised < INFINITY:
                candidate = (neighbor, advertised + LINK_COST)
                if best is None or candidate[1] < best[1]:
                    best = candidate
        frozen = best[1] if best else INFINITY
        # Sorted so the query fan-out order never depends on set hashing.
        for neighbor in sorted(audience):
            query = DualQuery(self.node_id, dst, frozen)
            if self.metrics is not None:
                self.metrics.on_control_initiated(self.node_id, query)
            self.unicast(query, neighbor, on_fail=self._on_ctrl_link_failure)

    def _finish_active(self, dst, state):
        """All replies in: reset the feasible distance and re-choose."""
        state.active = False
        state.fd = INFINITY
        best = None
        for neighbor, advertised in state.via.items():
            if neighbor in self.neighbors and advertised < INFINITY:
                candidate = (neighbor, advertised + LINK_COST)
                if best is None or candidate[1] < best[1]:
                    best = candidate
        if best is not None:
            state.successor, state.dist = best
            state.fd = state.dist
            self._notify_table_change(dst)
            self._advertise(dst, state.dist)
        else:
            self._clear_route(dst, state)
        for neighbor in state.deferred:
            self._send_reply(dst, neighbor, state.dist)
        state.deferred = []

    def _clear_route(self, dst, state):
        had_route = state.dist < INFINITY
        state.successor = None
        state.dist = INFINITY
        state.fd = INFINITY
        if had_route:
            self._notify_table_change(dst)
            self._advertise(dst, INFINITY)

    def _advertise(self, dst, distance):
        """Reliable per-neighbor update.

        DUAL *requires* reliable neighbor communication (the property the
        paper calls out as its cost); a lost broadcast would leave stale
        topology-table entries that break the SNC safety argument, so each
        neighbor gets an ARQ unicast.
        """
        for neighbor in list(self.neighbors):
            update = DualUpdate(self.node_id, {dst: distance})
            if self.metrics is not None:
                self.metrics.on_control_initiated(self.node_id, update)
            self.unicast(update, neighbor, on_fail=self._on_ctrl_link_failure)

    def _send_reply(self, dst, neighbor, distance):
        reply = DualReply(self.node_id, dst, distance)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, reply)
        self.unicast(reply, neighbor, on_fail=self._on_ctrl_link_failure)
