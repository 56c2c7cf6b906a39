"""DSR protocol engine.

Route discovery floods a RREQ that records its traversed path; the target
(or a relay with a cached suffix) returns the complete route; data packets
carry the route in their header and are forwarded by source routing.
Route maintenance uses MAC-layer acknowledgment failure: the node that
detects a broken link sends a RERR to the packet's originator and may
*salvage* the packet with a route from its own cache.
"""

from repro.net.packet import DataPacket
from repro.protocols.dsr.cache import RouteCache
from repro.protocols.dsr.messages import DsrRerr, DsrRrep, DsrRreq
from repro.routing.base import RouteDiscovery


class DsrConfig:
    """DSR parameters (draft-style defaults)."""

    def __init__(
        self,
        discovery_timeout=0.5,
        max_discovery_timeout=10.0,
        rreq_retries=8,
        non_propagating_ttl=1,
        network_ttl=64,
        cache_lifetime=300.0,
        max_salvage_count=4,
        buffer_capacity=64,
        buffer_max_age=30.0,
        seen_timeout=30.0,
        rebroadcast_jitter=0.01,
        promiscuous_learning=True,
        route_shortening=True,
        gratuitous_rrep_holdoff=5.0,
    ):
        self.discovery_timeout = discovery_timeout
        self.max_discovery_timeout = max_discovery_timeout
        self.rreq_retries = rreq_retries
        self.non_propagating_ttl = non_propagating_ttl
        self.network_ttl = network_ttl
        self.cache_lifetime = cache_lifetime
        self.max_salvage_count = max_salvage_count
        self.buffer_capacity = buffer_capacity
        self.buffer_max_age = buffer_max_age
        self.seen_timeout = seen_timeout
        self.rebroadcast_jitter = rebroadcast_jitter
        self.promiscuous_learning = promiscuous_learning
        self.route_shortening = route_shortening
        self.gratuitous_rrep_holdoff = gratuitous_rrep_holdoff


class DsrProtocol(RouteDiscovery):
    """Dynamic Source Routing on one node."""

    name = "dsr"

    def __init__(self, sim, node, config=None, metrics=None):
        super().__init__(sim, node, config or DsrConfig(), metrics)
        self.cache = RouteCache(sim, self.node_id,
                                lifetime=self.config.cache_lifetime)
        self._rreq_id = 0
        self._seen = {}  # (src, rreq_id) -> expiry
        self._gratuitous_sent = {}  # shortening key -> last sent time

    # ------------------------------------------------------------------
    # promiscuous optimizations (overhearing)
    # ------------------------------------------------------------------
    def start(self):
        if self.config.promiscuous_learning or self.config.route_shortening:
            self.mac.promiscuous_fn = self._on_overhear

    def _on_overhear(self, packet, sender, link_dst):
        """Frames addressed to other nodes, decoded promiscuously.

        Two of the classic DSR optimizations the paper alludes to:
        *route learning* (cache usable suffixes of overheard source routes
        and replies) and *automatic route shortening* (overhearing a data
        packet transmitted by a node **earlier** in its source route than
        our own predecessor proves the intermediate hops are unnecessary:
        a gratuitous RREP tells the source the shorter route).
        """
        if isinstance(packet, DsrRrep):
            if self.config.promiscuous_learning and self.node_id in packet.route:
                idx = packet.route.index(self.node_id)
                self.cache.add(packet.route[idx:])
            return
        if not isinstance(packet, DataPacket) or not packet.source_route:
            return
        route = packet.source_route
        if self.config.promiscuous_learning and self.node_id in route:
            idx = route.index(self.node_id)
            self.cache.add(route[idx:])
        if not self.config.route_shortening:
            return
        if self.node_id not in route or sender not in route:
            return
        our_pos = route.index(self.node_id)
        sender_pos = route.index(sender)
        if our_pos <= sender_pos + 1:
            return  # nothing skipped: normal progression
        shortened = route[: sender_pos + 1] + route[our_pos:]
        key = (route[0], packet.dst, sender, self.node_id)
        now = self.sim.now
        if self._gratuitous_sent.get(key, -1e9) + \
                self.config.gratuitous_rrep_holdoff > now:
            return
        self._gratuitous_sent[key] = now
        reply_path = list(reversed(shortened[: shortened.index(self.node_id) + 1]))
        rrep = DsrRrep(shortened, reply_path)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, rrep)
        self._forward_source_routed(rrep, reply_path)

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    def send_data(self, packet):
        dst = packet.dst
        if dst == self.node_id:
            self.deliver_local(packet)
            return
        route = self._route(dst)
        if route is not None:
            self._forward(packet, route)
        else:
            self._buffer_and_discover(packet)

    def on_packet(self, packet, from_id):
        if isinstance(packet, DataPacket):
            self._on_data(packet, from_id)
        elif isinstance(packet, DsrRreq):
            self._on_rreq(packet, from_id)
        elif isinstance(packet, DsrRrep):
            self._on_rrep(packet, from_id)
        elif isinstance(packet, DsrRerr):
            self._on_rerr(packet, from_id)

    def successor(self, dst):
        # DSR has no hop-by-hop table; for the loop audit the "successor"
        # is the next hop of the shortest cached source route.  Source
        # routes are loop-free by construction (no repeated nodes).
        route = self.cache.lookup(dst)
        if route is not None and len(route) >= 2:
            return route[1]
        return None

    def route_metric(self, dst):
        """Explicitly None: DSR has no sequence numbers or feasible
        distances to audit.

        Source routes are loop-free by construction (a route never
        repeats a node), so the LDR ordering criterion has no analogue;
        the loop audit walks the cached-route successor graph for
        acyclicity only.
        """
        return None

    # ------------------------------------------------------------------
    # data plane (source routing)
    # ------------------------------------------------------------------
    def _route(self, dst):
        return self.cache.lookup(dst)

    def _forward(self, packet, route):
        """Source-route ``packet`` along ``route``, which starts at us."""
        packet.source_route = list(route)
        packet.route_position = 0
        packet.salvage_count = getattr(packet, "salvage_count", 0)
        self.unicast(packet, route[1], on_fail=self._on_data_link_failure)

    def _on_data(self, packet, from_id):
        packet.hops += 1  # one link traversed, even when we are the sink
        if packet.dst == self.node_id:
            self.deliver_local(packet)
            return
        route = packet.source_route or []
        try:
            position = route.index(self.node_id)
        except ValueError:
            self.drop_data(packet, "not_on_route")
            return
        if position + 1 >= len(route):
            self.drop_data(packet, "route_exhausted")
            return
        packet.route_position = position
        next_hop = route[position + 1]
        self.unicast(packet, next_hop, on_fail=self._on_data_link_failure)

    def _on_data_link_failure(self, packet, next_hop):
        if not isinstance(packet, DataPacket):
            return
        self.cache.remove_link(self.node_id, next_hop)
        route = packet.source_route or [packet.src, packet.dst]
        origin = route[0]
        # Route maintenance: tell the originator which link broke.
        if origin != self.node_id:
            position = route.index(self.node_id) if self.node_id in route else 0
            reply_path = list(reversed(route[: position + 1]))
            rerr = DsrRerr(self.node_id, next_hop, reply_path)
            if self.metrics is not None:
                self.metrics.on_control_initiated(self.node_id, rerr)
            self._forward_source_routed(rerr, rerr.reply_path)
        # Salvage: re-route with our own cache if we still know a way.
        salvage = getattr(packet, "salvage_count", 0)
        alternate = self.cache.lookup(packet.dst)
        if alternate is not None and salvage < self.config.max_salvage_count:
            packet.salvage_count = salvage + 1
            self._forward(packet, alternate)
            return
        self._on_data_give_up(packet)

    def _forward_source_routed(self, ctrl, reply_path):
        """Send a control packet along ``reply_path`` (we are path[0])."""
        if len(reply_path) < 2:
            return
        self.unicast(ctrl, reply_path[1], on_fail=self._on_ctrl_link_failure)

    def _on_ctrl_link_failure(self, packet, next_hop):
        self.cache.remove_link(self.node_id, next_hop)

    # ------------------------------------------------------------------
    # route discovery (the lifecycle is RouteDiscovery's)
    # ------------------------------------------------------------------
    def _ring(self, dst, attempt):
        cfg = self.config
        # First attempt is a non-propagating request (TTL 1) to exploit
        # neighbors' caches; later attempts flood the network.
        ttl = cfg.non_propagating_ttl if attempt == 0 else cfg.network_ttl
        timeout = min(
            cfg.discovery_timeout * (2 ** attempt), cfg.max_discovery_timeout
        )
        return ttl, timeout

    def _solicit(self, discovery):
        self._rreq_id += 1
        rreq = DsrRreq(self.node_id, self._rreq_id, discovery.dst,
                       [self.node_id], ttl=discovery.ttl)
        self._seen[(self.node_id, self._rreq_id)] = (
            self.sim.now + self.config.seen_timeout
        )
        self.broadcast(rreq, initiated=True)

    # ------------------------------------------------------------------
    # RREQ / RREP
    # ------------------------------------------------------------------
    def _on_rreq(self, rreq, from_id):
        if rreq.src == self.node_id or self.node_id in rreq.route:
            return
        key = (rreq.src, rreq.rreq_id)
        now = self.sim.now
        if key in self._seen and self._seen[key] > now:
            return
        self._seen[key] = now + self.config.seen_timeout
        if len(self._seen) > 512:
            self._seen = {k: v for k, v in self._seen.items() if v > now}

        route_so_far = rreq.route + [self.node_id]
        if rreq.target == self.node_id:
            self._reply(route_so_far, route_so_far)
            return
        # Cache reply: we know a suffix from here to the target.
        cached = self.cache.lookup(rreq.target)
        if cached is not None:
            full = route_so_far + cached[1:]
            if len(set(full)) == len(full):  # no node repeated -> loop-free
                self._reply(full, route_so_far)
                return
        if rreq.ttl <= 1:
            return
        relayed = DsrRreq(rreq.src, rreq.rreq_id, rreq.target, route_so_far,
                          ttl=rreq.ttl - 1)
        self.broadcast(relayed, jitter=self.config.rebroadcast_jitter)

    def _reply(self, full_route, path_to_here):
        """Send a RREP containing ``full_route`` back to its origin."""
        reply_path = list(reversed(path_to_here))
        rrep = DsrRrep(full_route, reply_path)
        self.cache.add(list(reversed(path_to_here)))  # route back to origin
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, rrep)
        self._forward_source_routed(rrep, reply_path)

    def _on_rrep(self, rrep, from_id):
        try:
            position = rrep.reply_path.index(self.node_id)
        except ValueError:
            return
        # Relays learn the discovered route's usable suffix.
        if self.node_id in rrep.route:
            idx = rrep.route.index(self.node_id)
            self.cache.add(rrep.route[idx:])
        if self.metrics is not None:
            self.metrics.on_usable_rrep(self.node_id)
        if position == len(rrep.reply_path) - 1:
            # We are the origin.
            if rrep.route and rrep.route[0] == self.node_id:
                self.cache.add(rrep.route)
                self._complete_discovery(rrep.route[-1])
            return
        out = rrep.copy()
        self.unicast(out, rrep.reply_path[position + 1],
                     on_fail=self._on_ctrl_link_failure)

    # ------------------------------------------------------------------
    # RERR
    # ------------------------------------------------------------------
    def _on_rerr(self, rerr, from_id):
        self.cache.remove_link(rerr.from_node, rerr.to_node)
        try:
            position = rerr.reply_path.index(self.node_id)
        except ValueError:
            return
        if position == len(rerr.reply_path) - 1:
            return  # reached the data originator
        out = rerr.copy()
        self.unicast(out, rerr.reply_path[position + 1],
                     on_fail=self._on_ctrl_link_failure)
