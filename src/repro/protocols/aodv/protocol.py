"""AODV protocol engine (baseline for the paper's comparison).

Implements the on-demand core of draft-10/RFC 3561: expanding-ring RREQ
flooding, reverse-route construction, destination/intermediate RREPs,
sequence-number freshness with circular comparison, and RERRs that
*increment the broken destination's sequence number* — the exact mechanism
whose cost Fig. 7 of the paper quantifies (mean destination sequence
numbers of ~10^2 under churn, versus LDR's handful of resets).

Link breaks are detected by MAC-layer feedback (no hello beacons), the
configuration the paper's GloMoSim runs used.
"""

from repro.net.packet import DataPacket
from repro.protocols.aodv.messages import AodvHello, AodvRerr, AodvRrep, AodvRreq
from repro.routing.base import RouteDiscovery, ring_ttl
from repro.routing.seqnum import circular_geq, circular_greater


class AodvConfig:
    """AODV parameters (defaults from the draft)."""

    def __init__(
        self,
        active_route_timeout=3.0,
        node_traversal_time=0.04,
        net_diameter=35,
        ttl_start=2,
        ttl_increment=2,
        ttl_threshold=7,
        rreq_retries=2,
        my_route_timeout=6.0,
        data_hop_limit=64,
        buffer_capacity=64,
        buffer_max_age=30.0,
        seen_timeout=6.0,
        rebroadcast_jitter=0.01,
        use_hello=False,
        hello_interval=1.0,
        allowed_hello_loss=2,
    ):
        self.active_route_timeout = active_route_timeout
        self.node_traversal_time = node_traversal_time
        self.net_diameter = net_diameter
        self.ttl_start = ttl_start
        self.ttl_increment = ttl_increment
        self.ttl_threshold = ttl_threshold
        self.rreq_retries = rreq_retries
        self.my_route_timeout = my_route_timeout
        self.data_hop_limit = data_hop_limit
        self.buffer_capacity = buffer_capacity
        self.buffer_max_age = buffer_max_age
        self.seen_timeout = seen_timeout
        self.rebroadcast_jitter = rebroadcast_jitter
        # GloMoSim-era configuration: periodic hellos instead of (or in
        # addition to) MAC-layer link feedback.
        self.use_hello = use_hello
        self.hello_interval = hello_interval
        self.allowed_hello_loss = allowed_hello_loss

    def ring_timeout(self, ttl):
        """RING_TRAVERSAL_TIME = 2 * NODE_TRAVERSAL_TIME * (ttl + 2)."""
        return max(0.2, 2.0 * self.node_traversal_time * (ttl + 2))


class AodvRouteEntry:
    """One destination's route (sequence number kept across invalidation)."""

    __slots__ = ("dst", "seq", "seq_valid", "hops", "next_hop", "expiry", "valid")

    def __init__(self, dst):
        self.dst = dst
        self.seq = 0
        self.seq_valid = False
        self.hops = float("inf")
        self.next_hop = None
        self.expiry = 0.0
        self.valid = False

    def is_active(self, now):
        return self.valid and now < self.expiry

    def __repr__(self):
        return "AodvRouteEntry(dst={}, seq={}, hops={}, nh={}, valid={})".format(
            self.dst, self.seq, self.hops, self.next_hop, self.valid
        )


class AodvProtocol(RouteDiscovery):
    """AODV on one node."""

    name = "aodv"

    def __init__(self, sim, node, config=None, metrics=None):
        super().__init__(sim, node, config or AodvConfig(), metrics)
        self.table = {}  # dst -> AodvRouteEntry
        self.own_seq = 0
        self._rreq_id = 0
        self._seen = {}  # (src, rreq_id) -> expiry
        self._hello_heard = {}  # neighbor -> last heard (hello mode)

    # ------------------------------------------------------------------
    # hello-based link sensing (config.use_hello)
    # ------------------------------------------------------------------
    def start(self):
        if self.config.use_hello:
            self.sim.schedule(
                self._proto_rng.uniform(0, self.config.hello_interval),
                self._hello_tick,
            )

    def _hello_tick(self):
        if self.stopped:
            return
        now = self.sim.now
        limit = self.config.allowed_hello_loss * self.config.hello_interval
        for neighbor in [n for n, t in self._hello_heard.items()
                         if now - t > limit]:
            del self._hello_heard[neighbor]
            self._on_neighbor_silent(neighbor)
        hello = AodvHello(self.node_id, self.own_seq)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, hello)
        self.broadcast(hello)
        self.sim.schedule(self.config.hello_interval, self._hello_tick)

    def _on_neighbor_silent(self, neighbor):
        """Hello loss: same consequences as a MAC-detected break."""
        broken = []
        for dst, entry in self.table.items():
            if entry.valid and entry.next_hop == neighbor:
                entry.valid = False
                entry.seq += 1
                broken.append((dst, entry.seq))
                self._notify_table_change(dst)
        if broken:
            self.broadcast(AodvRerr(broken), initiated=True)

    def _on_hello(self, hello, from_id):
        self._hello_heard[from_id] = self.sim.now
        # A hello also refreshes/creates the one-hop route (RFC 3561 §6.9).
        self._update_reverse_route(hello.origin, hello.seq, 1, from_id)

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    def send_data(self, packet):
        dst = packet.dst
        if dst == self.node_id:
            self.deliver_local(packet)
            return
        entry = self._route(dst)
        if entry is not None:
            self._forward(packet, entry)
        else:
            self._buffer_and_discover(packet)

    def on_packet(self, packet, from_id):
        if isinstance(packet, DataPacket):
            self._on_data(packet, from_id)
        elif isinstance(packet, AodvRreq):
            self._on_rreq(packet, from_id)
        elif isinstance(packet, AodvRrep):
            self._on_rrep(packet, from_id)
        elif isinstance(packet, AodvRerr):
            self._on_rerr(packet, from_id)
        elif isinstance(packet, AodvHello):
            self._on_hello(packet, from_id)

    def successor(self, dst):
        if dst == self.node_id:
            return None
        entry = self.table.get(dst)
        if entry is not None and entry.valid:
            return entry.next_hop
        return None

    def route_metric(self, dst):
        """Explicitly None: AODV's destination sequence numbers do not
        carry the LDR feasible-distance invariant.

        Any node may increment a destination's number on a route break
        (RFC 3561 §6.11), so equal-sn comparisons between neighbors say
        nothing about path ordering — this is exactly the behaviour the
        paper contrasts with LDR (and why van Glabbeek et al. showed
        sequence numbers alone do not guarantee loop freedom).  The loop
        checker therefore audits AODV for acyclicity only.
        """
        return None

    def own_sequence_value(self):
        """This node's own destination sequence number (Fig. 7)."""
        return self.own_seq

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _route(self, dst):
        entry = self.table.get(dst)
        if entry is not None and entry.is_active(self.sim.now):
            return entry
        return None

    def _forward(self, packet, entry):
        now = self.sim.now
        entry.expiry = max(entry.expiry, now + self.config.active_route_timeout)
        src_entry = self.table.get(packet.src)
        if src_entry is not None and src_entry.valid:
            src_entry.expiry = max(
                src_entry.expiry, now + self.config.active_route_timeout
            )
        self.unicast(packet, entry.next_hop, on_fail=self._on_data_link_failure)

    def _on_data(self, packet, from_id):
        if not self._transit(packet):
            return
        entry = self.table.get(packet.dst)
        if entry is not None and entry.is_active(self.sim.now):
            self._forward(packet, entry)
            return
        self.drop_data(packet, "no_route")
        seq = self._bump_broken_seq(packet.dst)
        self.broadcast(AodvRerr([(packet.dst, seq)]), initiated=True)

    def _on_data_link_failure(self, packet, next_hop):
        broken = []
        for dst, entry in self.table.items():
            if entry.valid and entry.next_hop == next_hop:
                entry.valid = False
                # RFC 3561 §6.11: increment the sequence number of every
                # destination that became unreachable.  This is the AODV
                # behaviour the paper contrasts with LDR.
                entry.seq += 1
                broken.append((dst, entry.seq))
                self._notify_table_change(dst)
        if broken:
            self.broadcast(AodvRerr(broken), initiated=True)
        if isinstance(packet, DataPacket):
            self._on_data_give_up(packet)

    def _bump_broken_seq(self, dst):
        entry = self.table.get(dst)
        if entry is None:
            entry = AodvRouteEntry(dst)
            # repro-lint: disable=RL103 -- creates an entry only to hold the
            # bumped seqno; it is born invalid, so successor(dst) is None
            # before and after and the loop audit has nothing new to see.
            self.table[dst] = entry
        entry.seq += 1
        entry.seq_valid = True
        entry.valid = False
        return entry.seq

    # ------------------------------------------------------------------
    # route discovery (the lifecycle is RouteDiscovery's)
    # ------------------------------------------------------------------
    def _ring(self, dst, attempt):
        ttl = ring_ttl(self.config, attempt, self.config.ttl_start)
        return ttl, self.config.ring_timeout(ttl)

    def _solicit(self, discovery):
        # §6.1: increment own sequence number before originating discovery.
        self.own_seq += 1
        self._rreq_id += 1
        dst = discovery.dst
        entry = self.table.get(dst)
        if entry is not None and entry.seq_valid:
            dst_seq, unknown = entry.seq, False
        else:
            dst_seq, unknown = 0, True
        rreq = AodvRreq(
            src=self.node_id, src_seq=self.own_seq, rreq_id=self._rreq_id,
            dst=dst, dst_seq=dst_seq, unknown_seq=unknown, hop_count=0,
            ttl=discovery.ttl,
        )
        self._seen[(self.node_id, self._rreq_id)] = self.sim.now + self.config.seen_timeout
        self.broadcast(rreq, initiated=True)

    # ------------------------------------------------------------------
    # RREQ handling
    # ------------------------------------------------------------------
    def _on_rreq(self, rreq, from_id):
        if rreq.src == self.node_id:
            return
        key = (rreq.src, rreq.rreq_id)
        now = self.sim.now
        if key in self._seen and self._seen[key] > now:
            return
        self._seen[key] = now + self.config.seen_timeout
        if len(self._seen) > 512:
            self._seen = {k: v for k, v in self._seen.items() if v > now}

        hop_count = rreq.hop_count + 1
        self._update_reverse_route(rreq.src, rreq.src_seq, hop_count, from_id)

        if rreq.dst == self.node_id:
            # §6.1/§6.6.1: adopt the (possibly inflated) number carried by
            # the network, then increment before replying.
            if not rreq.unknown_seq and circular_greater(rreq.dst_seq, self.own_seq):
                self.own_seq = rreq.dst_seq
            self.own_seq += 1
            rrep = AodvRrep(
                src=rreq.src, dst=self.node_id, dst_seq=self.own_seq,
                hop_count=0, lifetime=self.config.my_route_timeout,
            )
            self._send_rrep(rrep, rreq.src)
            return

        entry = self.table.get(rreq.dst)
        if (
            entry is not None
            and entry.is_active(now)
            and entry.seq_valid
            and (rreq.unknown_seq or circular_geq(entry.seq, rreq.dst_seq))
        ):
            # Intermediate reply with the cached route.
            rrep = AodvRrep(
                src=rreq.src, dst=rreq.dst, dst_seq=entry.seq,
                hop_count=entry.hops, lifetime=max(0.0, entry.expiry - now),
            )
            self._send_rrep(rrep, rreq.src)
            return

        if rreq.ttl <= 1:
            return
        out = rreq.copy()
        out.hop_count = hop_count
        out.ttl = rreq.ttl - 1
        # §6.5: a forwarding node sets the RREQ's destination sequence number
        # to the maximum of the packet's and its own stored value.
        if entry is not None and entry.seq_valid:
            if rreq.unknown_seq or circular_greater(entry.seq, rreq.dst_seq):
                out.dst_seq = entry.seq
                out.unknown_seq = False
        self.broadcast(out, jitter=self.config.rebroadcast_jitter)

    def _update_reverse_route(self, dst, seq, hops, via):
        now = self.sim.now
        entry = self.table.get(dst)
        if entry is None:
            entry = AodvRouteEntry(dst)
            self.table[dst] = entry
        fresher = (
            not entry.seq_valid
            or circular_greater(seq, entry.seq)
            # RFC 3561 treats expired routes as invalid: an equal-seq
            # advertisement may always repair a route that is not active.
            or (seq == entry.seq
                and (hops < entry.hops or not entry.is_active(now)))
        )
        if not fresher:
            return False
        entry.seq = max(entry.seq, seq) if entry.seq_valid else seq
        entry.seq_valid = True
        entry.hops = hops
        entry.next_hop = via
        entry.valid = True
        entry.expiry = max(entry.expiry, now + self.config.active_route_timeout)
        self._notify_table_change(dst)
        return True

    def _send_rrep(self, rrep, terminus):
        """Unicast a RREP toward ``terminus`` along the reverse route."""
        entry = self.table.get(terminus)
        if entry is None or not entry.valid:
            return
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, rrep)
        self.unicast(rrep, entry.next_hop, on_fail=self._on_rrep_link_failure)

    # ------------------------------------------------------------------
    # RREP handling
    # ------------------------------------------------------------------
    def _on_rrep(self, rrep, from_id):
        hop_count = rrep.hop_count + 1
        usable = self._update_forward_route(
            rrep.dst, rrep.dst_seq, hop_count, from_id, rrep.lifetime
        )
        if usable and self.metrics is not None:
            self.metrics.on_usable_rrep(self.node_id)
        if rrep.src == self.node_id:
            self._complete_discovery(rrep.dst)
            return
        entry = self.table.get(rrep.src)
        if entry is None or not entry.valid:
            return  # reverse route evaporated; the reply dies here
        out = rrep.copy()
        out.hop_count = hop_count
        self.unicast(out, entry.next_hop, on_fail=self._on_rrep_link_failure)

    def _update_forward_route(self, dst, seq, hops, via, lifetime):
        if dst == self.node_id:
            return False
        now = self.sim.now
        entry = self.table.get(dst)
        if entry is None:
            entry = AodvRouteEntry(dst)
            self.table[dst] = entry
        better = (
            not entry.seq_valid
            or circular_greater(seq, entry.seq)
            or (seq == entry.seq
                and (not entry.is_active(now) or hops < entry.hops))
        )
        if not better:
            return False
        entry.seq = seq
        entry.seq_valid = True
        entry.hops = hops
        entry.next_hop = via
        entry.valid = True
        entry.expiry = max(entry.expiry, now + max(lifetime, 0.1))
        self._notify_table_change(dst)
        return True

    def _on_rrep_link_failure(self, packet, next_hop):
        # The reverse path broke while the RREP was in flight; the
        # discovery at the origin will simply time out and retry.
        pass

    # ------------------------------------------------------------------
    # RERR handling
    # ------------------------------------------------------------------
    def _on_rerr(self, rerr, from_id):
        propagate = []
        for dst, seq in rerr.unreachable:
            entry = self.table.get(dst)
            if entry is not None and entry.valid and entry.next_hop == from_id:
                entry.valid = False
                if circular_greater(seq, entry.seq):
                    entry.seq = seq
                    entry.seq_valid = True
                propagate.append((dst, entry.seq))
                self._notify_table_change(dst)
        if propagate:
            self.broadcast(AodvRerr(propagate))
            for dst, _ in propagate:
                if self.buffer.pending(dst):
                    self._ensure_discovery(dst)
