"""NSR protocol engine: DSR plus two-hop neighborhood awareness.

Implementation strategy: NSR *is* source routing (the DSR engine is
reused, route discovery included), with three additions:

1. every node tracks its one-hop neighborhood passively (any reception —
   including promiscuous ones — proves a neighbor);
2. route requests and replies piggyback the neighbor lists of the nodes
   they traverse, giving receivers a two-hop (and beyond) neighborhood
   map;
3. on a broken link, the detecting node first tries a **local patch**: if
   some current neighbor is known to neighbor the hop *after* the broken
   one, the source route is spliced through it and the packet continues —
   no new discovery, no salvage-from-cache.

The patch is NSR's contribution over DSR (paper Section 1); everything
else — caches, RREQ/RREP mechanics, RERRs — is inherited.  For discovery
NSR overrides only how its request, relayed request and reply are built.
"""

from repro.net.packet import DataPacket
from repro.protocols.dsr.messages import DsrRrep, DsrRreq
from repro.protocols.dsr.protocol import DsrConfig, DsrProtocol

#: Entries piggybacked per control packet (bounds header growth).
MAX_PIGGYBACKED = 8


class NsrConfig(DsrConfig):
    """NSR parameters: DSR's plus neighborhood management."""

    def __init__(self, neighbor_hold_time=4.0, two_hop_hold_time=8.0, **kw):
        super().__init__(**kw)
        self.neighbor_hold_time = neighbor_hold_time
        self.two_hop_hold_time = two_hop_hold_time


class NsrRreq(DsrRreq):
    """DSR RREQ carrying traversed nodes' neighbor lists."""

    def __init__(self, src, rreq_id, target, route, ttl=255,
                 neighborhoods=None):
        super().__init__(src, rreq_id, target, route, ttl=ttl)
        self.neighborhoods = dict(neighborhoods or {})
        self.size_bytes += 4 * sum(len(v) for v in self.neighborhoods.values())

    def copy(self):
        return NsrRreq(self.src, self.rreq_id, self.target, self.route,
                       self.ttl, self.neighborhoods)


class NsrRrep(DsrRrep):
    """DSR RREP carrying traversed nodes' neighbor lists."""

    def __init__(self, route, reply_path, neighborhoods=None):
        super().__init__(route, reply_path)
        self.neighborhoods = dict(neighborhoods or {})
        self.size_bytes += 4 * sum(len(v) for v in self.neighborhoods.values())

    def copy(self):
        return NsrRrep(self.route, self.reply_path, self.neighborhoods)


class NsrProtocol(DsrProtocol):
    """Neighborhood-aware Source Routing on one node."""

    name = "nsr"

    def __init__(self, sim, node, config=None, metrics=None):
        super().__init__(sim, node, config=config or NsrConfig(),
                         metrics=metrics)
        self.one_hop = {}  # neighbor -> last heard
        self.two_hop = {}  # node -> (frozenset of its neighbors, expiry)
        self.patches = 0  # local repairs performed (for tests/metrics)

    # ------------------------------------------------------------------
    # neighborhood sensing
    # ------------------------------------------------------------------
    def start(self):
        super().start()  # DSR's promiscuous learning
        previous = self.mac.promiscuous_fn

        def tap(packet, sender, link_dst):
            self._heard(sender)
            if previous is not None:
                previous(packet, sender, link_dst)

        self.mac.promiscuous_fn = tap

    def on_packet(self, packet, from_id):
        self._heard(from_id)
        if isinstance(packet, (NsrRreq, NsrRrep)):
            self._learn_neighborhoods(packet.neighborhoods)
        super().on_packet(packet, from_id)

    def _heard(self, neighbor):
        self.one_hop[neighbor] = self.sim.now

    def _current_neighbors(self):
        cutoff = self.sim.now - self.config.neighbor_hold_time
        self.one_hop = {n: t for n, t in self.one_hop.items() if t >= cutoff}
        return tuple(sorted(self.one_hop))

    def _learn_neighborhoods(self, neighborhoods):
        expiry = self.sim.now + self.config.two_hop_hold_time
        for node, neighbors in neighborhoods.items():
            if node != self.node_id:
                self.two_hop[node] = (frozenset(neighbors), expiry)

    def _knows_link(self, a, b):
        """Is the link a-b supported by our neighborhood knowledge?"""
        now = self.sim.now
        for x, y in ((a, b), (b, a)):
            entry = self.two_hop.get(x)
            if entry is not None and entry[1] > now and y in entry[0]:
                return True
        return False

    def _piggyback(self, neighborhoods):
        """Add our own (fresh) neighbor list to a piggyback map."""
        out = dict(list(neighborhoods.items())[-(MAX_PIGGYBACKED - 1):])
        out[self.node_id] = self._current_neighbors()
        return out

    # ------------------------------------------------------------------
    # discovery: DSR's flow; the messages piggyback neighborhoods
    # ------------------------------------------------------------------
    def _new_rreq(self, dst, ttl):
        return NsrRreq(self.node_id, self._rreq_id, dst, [self.node_id],
                       ttl=ttl, neighborhoods=self._piggyback({}))

    def _relayed_rreq(self, rreq, route):
        return NsrRreq(rreq.src, rreq.rreq_id, rreq.target, route,
                       ttl=rreq.ttl - 1,
                       neighborhoods=self._piggyback(rreq.neighborhoods))

    def _new_rrep(self, rreq, full_route, reply_path):
        return NsrRrep(full_route, reply_path,
                       neighborhoods=self._piggyback(rreq.neighborhoods))

    # ------------------------------------------------------------------
    # the NSR patch: local repair before DSR's salvage
    # ------------------------------------------------------------------
    def _on_data_link_failure(self, packet, next_hop):
        if isinstance(packet, DataPacket):
            patched = self._try_patch(packet, next_hop)
            if patched:
                return
        super()._on_data_link_failure(packet, next_hop)

    def _try_patch(self, packet, broken_hop):
        route = packet.source_route or []
        if self.node_id not in route or broken_hop not in route:
            return False
        pos = route.index(self.node_id)
        if pos + 2 >= len(route):
            # The broken hop was the destination itself: try a neighbor
            # that we know neighbors the destination.
            after = route[-1]
        else:
            after = route[pos + 2]
        neighbors = set(self._current_neighbors())
        neighbors.discard(broken_hop)
        for candidate in sorted(neighbors):
            if candidate in route:
                continue
            if self._knows_link(candidate, after):
                tail = route[route.index(after):]
                new_route = route[: pos + 1] + [candidate] + tail
                if len(set(new_route)) != len(new_route):
                    continue
                self.patches += 1
                self.cache.remove_link(self.node_id, broken_hop)
                packet.source_route = new_route
                self.unicast(packet, candidate,
                             on_fail=super()._on_data_link_failure)
                return True
        return False
