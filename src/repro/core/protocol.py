"""The LDR protocol engine.

Implements Procedures 1–4 of the paper plus RERR handling and the Section-4
optimizations.  One instance runs per node; it talks to the MAC through the
:class:`~repro.routing.base.RoutingProtocol` helpers and keeps its routing
state in :mod:`repro.core.state` objects.  Procedure 1's buffer, retry and
flush are the shared :class:`~repro.routing.base.RouteDiscovery`; LDR
supplies its ring and its RREQ.
"""

from repro.core.conditions import (
    ndc_accepts,
    sdc_allows_reply,
    strengthen_solicitation,
    t_bit_update,
)
from repro.core.config import LdrConfig
from repro.core.messages import INFINITY, LdrRerr, LdrRrep, LdrRreq
from repro.core.state import LdrRouteEntry, RreqCacheEntry
from repro.net.packet import DataPacket
from repro.routing.base import RouteDiscovery, ring_ttl
from repro.routing.seqnum import LabeledSeq

LINK_COST = 1  # hop-count metric; Section 2 assumes positive symmetric costs


class LdrProtocol(RouteDiscovery):
    """Labeled Distance Routing on one node."""

    name = "ldr"

    def __init__(self, sim, node, config=None, metrics=None):
        super().__init__(sim, node, config or LdrConfig(), metrics)
        self.table = {}  # dst -> LdrRouteEntry
        self.rreq_cache = {}  # (origin, rreqid) -> RreqCacheEntry
        # Destination-controlled sequence number for *this* node.  The
        # paper's (timestamp, counter) label; only we may increment it.
        # The timestamp is taken from the clock at (re)boot — Section 3's
        # reboot story: losing state zeroes the counter, but the fresh
        # boot-time stamp keeps the label monotone across incarnations.
        self.own_seq = LabeledSeq(self.sim.now, 0)
        self.own_seq_increments = 0
        self._next_rreqid = 0
        cost_model = self.config.link_cost
        if cost_model is not None and hasattr(cost_model, "bind_clock"):
            cost_model.bind_clock(lambda: self.sim.now)

    def _link_cost(self, neighbor):
        """Cost of the link to ``neighbor`` (Table 1's lc; 1 = hop count)."""
        model = self.config.link_cost
        return LINK_COST if model is None else model(self.node_id, neighbor)

    # ==================================================================
    # public / node-facing API
    # ==================================================================
    def send_data(self, packet):
        """Route a locally originated (or forwarded) data packet."""
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
        elif isinstance(packet, LdrRreq):
            self._on_rreq(packet, from_id)
        elif isinstance(packet, LdrRrep):
            self._on_rrep(packet, from_id)
        elif isinstance(packet, LdrRerr):
            self._on_rerr(packet, from_id)

    def successor(self, dst):
        if dst == self.node_id:
            return None
        entry = self.table.get(dst)
        if entry is not None and entry.valid:
            return entry.next_hop
        return None

    def route_metric(self, dst):
        if dst == self.node_id:
            return (self.own_seq, 0, 0)
        entry = self.table.get(dst)
        if entry is None or entry.seqno is None:
            return None
        return (entry.seqno, entry.fd, entry.dist)

    def own_sequence_value(self):
        """Number of increments of our own label (Fig. 7's y-axis)."""
        return self.own_seq_increments

    # ==================================================================
    # own sequence number (destination-controlled)
    # ==================================================================
    def _increment_own_seq(self):
        self.own_seq = self.own_seq.incremented(self.sim.now)
        self.own_seq_increments += 1

    # ==================================================================
    # data plane
    # ==================================================================
    def _route(self, dst):
        entry = self.table.get(dst)
        if entry is not None and entry.is_active(self.sim.now):
            return entry
        return None

    def _forward(self, packet, entry):
        now = self.sim.now
        # Recent use keeps the route (and usually the reverse route) fresh.
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
        # No usable route mid-path: report the error toward the previous
        # hop so upstream routes through us are torn down.
        self.drop_data(packet, "no_route")
        seq = entry.seqno if entry is not None else None
        self.broadcast(LdrRerr([(packet.dst, seq)]), initiated=True)

    def _on_data_link_failure(self, packet, next_hop):
        """MAC retry limit hit while forwarding data to ``next_hop``."""
        broken = self._invalidate_via(next_hop)
        if broken:
            self.broadcast(
                LdrRerr([(d, self.table[d].seqno) for d in broken]), initiated=True
            )
        if isinstance(packet, DataPacket):
            self._on_data_give_up(packet)

    def _invalidate_via(self, next_hop):
        """Invalidate all valid routes using ``next_hop``; returns the dsts.

        With the multipath extension, a recorded alternate that still
        satisfies NDC (same number, advertised distance below fd) takes
        over immediately — loop-free by Theorem 1, no rediscovery.
        """
        broken = []
        for dst, entry in self.table.items():
            if not (entry.valid and entry.next_hop == next_hop):
                continue
            entry.alternates.pop(next_hop, None)
            if self.config.multipath and self._failover(dst, entry):
                continue
            entry.invalidate()
            broken.append(dst)
            self._notify_table_change(dst)
        return broken

    def _failover(self, dst, entry):
        best = None
        for neighbor, (sn, adv_dist) in list(entry.alternates.items()):
            if sn != entry.seqno or adv_dist >= entry.fd:
                del entry.alternates[neighbor]
                continue
            if best is None or adv_dist < best[1]:
                best = (neighbor, adv_dist)
        if best is None:
            return False
        neighbor, adv_dist = best
        del entry.alternates[neighbor]
        entry.next_hop = neighbor
        entry.dist = adv_dist + self._link_cost(neighbor)
        entry.fd = min(entry.fd, entry.dist)
        self._notify_table_change(dst)
        return True

    # ==================================================================
    # Procedure 1 — initiate solicitation (the lifecycle is RouteDiscovery's)
    # ==================================================================
    def _ring(self, dst, attempt):
        ttl = self._initial_ttl(self.table.get(dst), attempt)
        return ttl, self.config.ring_timeout(ttl)

    def _initial_ttl(self, entry, attempt):
        cfg = self.config
        start = cfg.ttl_start
        if (
            cfg.optimal_ttl
            and entry is not None
            and entry.dist != INFINITY
            and entry.fd != INFINITY
        ):
            afd = cfg.answering_distance(entry.fd)
            start = max(1, int(entry.dist - afd) + cfg.local_add_ttl)
        return ring_ttl(cfg, attempt, start)

    def _solicit(self, discovery):
        self._next_rreqid += 1
        dst = discovery.dst
        entry = self.table.get(dst)
        sn = entry.seqno if entry is not None else None
        fd = entry.fd if entry is not None else INFINITY
        rreq = LdrRreq(
            dst=dst,
            sn_dst=sn,
            rreqid=self._next_rreqid,
            src=self.node_id,
            # Nodes do not increase their own number when issuing a RREQ
            # (Section 2.2) — firm control stays with the owner.
            sn_src=self.own_seq,
            fd=fd,
            dist=0,
            ttl=discovery.ttl,
            answering_fd=self.config.answering_distance(fd),
        )
        self.broadcast(rreq, initiated=True)

    # ==================================================================
    # Procedure 2 — relay solicitation
    # ==================================================================
    def _on_rreq(self, rreq, from_id):
        if rreq.src == self.node_id:
            return  # our own flood coming back
        if len(self.rreq_cache) >= 256:  # inline _purge_rreq_cache guard
            self._purge_rreq_cache()
        key = (rreq.src, rreq.rreqid)
        cache = self.rreq_cache.get(key)
        if rreq.d_bit:
            self._on_unicast_rreq(rreq, from_id, key, cache)
            return
        if cache is not None:
            return  # not passive: already engaged in this computation
        cache = RreqCacheEntry(
            rreq.src, rreq.rreqid, from_id, self.sim.now,
            self.config.engagement_timeout,
        )
        self.rreq_cache[key] = cache

        rreq = rreq.copy()
        # The RREQ doubles as an advertisement for its source: build the
        # reverse path when NDC allows it, flag N otherwise.
        if not rreq.n_bit:
            built = self._accept_advertisement(
                rreq.src, rreq.sn_src, rreq.dist, from_id,
                self.config.reverse_route_life,
            )
            if not built and self._route(rreq.src) is None:
                rreq.n_bit = True

        if self.config.request_as_error:
            self._request_as_error(rreq, from_id)

        if rreq.dst == self.node_id:
            self._destination_reply(rreq, cache)
            return

        entry = self.table.get(rreq.dst)
        now = self.sim.now
        active = entry is not None and entry.is_active(now)
        lifetime_ok = (
            entry is not None
            and entry.remaining_lifetime(now) >= self.config.min_reply_lifetime
        )
        my_sn = entry.seqno if entry is not None else None
        my_fd = entry.fd if entry is not None else INFINITY
        my_dist = entry.dist if entry is not None else INFINITY

        if active and lifetime_ok and sdc_allows_reply(
            True, my_sn, my_dist, rreq.sn_dst, rreq.answering_fd, rreq.t_bit
        ):
            self._intermediate_reply(rreq, cache, entry)
            return

        if active and rreq.t_bit and sdc_allows_reply(
            True, my_sn, my_dist, rreq.sn_dst, rreq.answering_fd, rreq.t_bit,
            ignore_t_bit=True,
        ):
            # First node on the path satisfying SDC without the T bit:
            # unicast the RREQ to the destination so it can reset the path.
            self._unicast_reset(rreq, entry, from_id)
            return

        self._relay_rreq(rreq, entry, from_id)

    def _relay_rreq(self, rreq, entry, from_id):
        if rreq.ttl <= 1:
            return  # ring boundary
        my_sn = entry.seqno if entry is not None else None
        my_fd = entry.fd if entry is not None else INFINITY
        out = rreq.copy()
        out.t_bit = t_bit_update(my_sn, my_fd, rreq.sn_dst, rreq.fd, rreq.t_bit)
        out.sn_dst, out.fd = strengthen_solicitation(
            my_sn, my_fd, rreq.sn_dst, rreq.fd
        )
        if out.sn_dst != rreq.sn_dst:
            # Fresher invariants supersede the origin's answering-distance
            # extension; derive a new one from the stronger fd.
            out.answering_fd = self.config.answering_distance(out.fd)
        else:
            # The extension may only tighten (it must stay <= fd#); the 0.8
            # factor is applied once, by the issuer, not per hop.
            out.answering_fd = min(rreq.answering_fd, out.fd)
        out.dist = rreq.dist + self._link_cost(from_id)
        out.ttl = rreq.ttl - 1
        self.broadcast(out, jitter=self.config.rebroadcast_jitter)

    def _request_as_error(self, rreq, from_id):
        """Section 4: a RREQ from our own next hop implies a broken route.

        If ``fd# > d_A - lc`` the neighbor would have answered the query
        itself had it still owned a valid route through us — so our route
        via that neighbor is almost certainly stale.
        """
        entry = self.table.get(rreq.dst)
        if (
            entry is not None
            and entry.valid
            and entry.next_hop == from_id
            and rreq.fd > entry.dist - self._link_cost(from_id)
        ):
            entry.invalidate()
            self._notify_table_change(rreq.dst)

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    def _destination_reply(self, rreq, cache):
        """We are the destination: reply, incrementing our label on resets."""
        if rreq.t_bit:
            # Reset required.  If our current number already exceeds the
            # requested one it suffices; otherwise increment (Section 2.2).
            if not (rreq.sn_dst is None or self.own_seq > rreq.sn_dst):
                self._increment_own_seq()
        rrep = LdrRrep(
            dst=self.node_id,
            sn_dst=self.own_seq,
            src=rreq.src,
            rreqid=rreq.rreqid,
            dist=0,
            lifetime=self.config.my_route_timeout,
            n_bit=rreq.n_bit,
        )
        cache.record_forwarded(self.own_seq, 0)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, rrep)
        self.unicast(rrep, cache.last_hop, on_fail=self._on_ctrl_link_failure)

    def _intermediate_reply(self, rreq, cache, entry):
        """SDC satisfied: offer our active route (Procedure 2 / SDC)."""
        rrep = LdrRrep(
            dst=rreq.dst,
            sn_dst=entry.seqno,
            src=rreq.src,
            rreqid=rreq.rreqid,
            dist=entry.dist,
            lifetime=entry.remaining_lifetime(self.sim.now),
            n_bit=rreq.n_bit,
        )
        cache.record_forwarded(entry.seqno, entry.dist)
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, rrep)
        self.unicast(rrep, cache.last_hop, on_fail=self._on_ctrl_link_failure)

    def _unicast_reset(self, rreq, entry, from_id):
        """Unicast the T-bit RREQ along our successor path to ``dst``.

        The TTL must be refreshed: in an expanding ring search the
        broadcast may not have enough time-to-live left to reach the
        destination (Section 2.2).
        """
        out = rreq.copy()
        out.d_bit = True
        out.dist = rreq.dist + self._link_cost(from_id)
        out.ttl = int(entry.dist) + self.config.local_add_ttl
        self.unicast(out, entry.next_hop, on_fail=self._on_ctrl_link_failure)

    def _on_unicast_rreq(self, rreq, from_id, key, cache):
        """Forward a destination-only reset probe along the successor path."""
        if cache is None:
            cache = RreqCacheEntry(
                rreq.src, rreq.rreqid, from_id, self.sim.now,
                self.config.engagement_timeout,
            )
            self.rreq_cache[key] = cache
        if rreq.dst == self.node_id:
            self._destination_reply(rreq, cache)
            return
        if cache.forwarded_unicast:
            return  # once per computation keeps the probe loop-free
        entry = self.table.get(rreq.dst)
        if entry is None or not entry.is_active(self.sim.now) or rreq.ttl <= 1:
            return
        cache.forwarded_unicast = True
        out = rreq.copy()
        out.dist = rreq.dist + self._link_cost(from_id)
        out.ttl = rreq.ttl - 1
        self.unicast(out, entry.next_hop, on_fail=self._on_ctrl_link_failure)

    # ==================================================================
    # Procedures 3 & 4 — accept and relay advertisements
    # ==================================================================
    def _accept_advertisement(self, dst, adv_sn, adv_dist, via, lifetime):
        """Procedure 3 guarded by NDC (plus the successor-stability note).

        Returns True when the routing table was created or updated — i.e.
        the advertisement was *usable* at this node.
        """
        if dst == self.node_id or adv_sn is None:
            return False
        now = self.sim.now
        entry = self.table.get(dst)
        new_dist = adv_dist + self._link_cost(via)
        if entry is not None and entry.seqno is not None:
            if not ndc_accepts(entry.seqno, entry.fd, adv_sn, adv_dist):
                # Same-successor refresh: an advertisement from our current
                # next hop with unchanged labels revalidates the route.
                if (
                    entry.next_hop == via
                    and adv_sn == entry.seqno
                    and new_dist == entry.dist
                ):
                    entry.valid = True
                    entry.expiry = max(entry.expiry, now + lifetime)
                return False
            if (
                entry.is_active(now)
                and entry.next_hop != via
                and adv_sn == entry.seqno
                and new_dist >= entry.dist
            ):
                # Stability: prefer the established path unless the new
                # one is strictly shorter (end of Section 2.1).  The offer
                # was feasible, though: remember it as an alternate.
                if self.config.multipath:
                    entry.alternates[via] = (adv_sn, adv_dist)
                return False
        if entry is None:
            entry = LdrRouteEntry(dst)
            self.table[dst] = entry
        old_sn = entry.seqno
        if self.config.multipath:
            if old_sn is None or adv_sn > old_sn:
                entry.alternates = {}
            # The previous successor's offer was feasible when adopted;
            # keep it around as a fallback.
            if (entry.next_hop is not None and entry.next_hop != via
                    and entry.seqno == adv_sn and entry.dist != INFINITY):
                entry.alternates.setdefault(
                    entry.next_hop, (entry.seqno, entry.dist - 1))
            entry.alternates[via] = (adv_sn, adv_dist)
        entry.dist = new_dist
        if old_sn is None or adv_sn > old_sn:
            entry.fd = new_dist  # sequence-number reset (Eq. 11, first case)
        else:
            entry.fd = min(entry.fd, new_dist)
        entry.seqno = adv_sn
        entry.next_hop = via
        entry.valid = True
        entry.expiry = max(entry.expiry, now + max(lifetime, 0.1))
        self._notify_table_change(dst)
        return True

    def _on_rrep(self, rrep, from_id):
        usable = self._accept_advertisement(
            rrep.dst, rrep.sn_dst, rrep.dist, from_id, rrep.lifetime
        )
        if usable and self.metrics is not None:
            self.metrics.on_usable_rrep(self.node_id)

        if rrep.src == self.node_id:
            # Terminus: our computation for rrep.dst ends in success.
            if usable or self._route(rrep.dst) is not None:
                self._complete_discovery(rrep.dst)
            if rrep.n_bit and self.config.n_bit_probe:
                self._handle_n_bit(rrep.dst)
            return

        key = (rrep.src, rrep.rreqid)
        cache = self.rreq_cache.get(key)
        if cache is None:
            return  # no engagement record: cannot trace the reverse path
        entry = self.table.get(rrep.dst)
        now = self.sim.now
        if entry is None or not entry.is_active(now):
            # Could not use the advertisement and have no active route of
            # our own: we must not relay it (Procedure 4).
            return
        if not cache.stronger_than_forwarded(entry.seqno, entry.dist):
            return
        if not self.config.multiple_rreps and cache.replied_sn is not None:
            return
        out = LdrRrep(
            dst=rrep.dst,
            sn_dst=entry.seqno,  # Procedure 4: relay re-advertises itself
            src=rrep.src,
            rreqid=rrep.rreqid,
            dist=entry.dist,
            lifetime=min(rrep.lifetime, entry.remaining_lifetime(now)),
            n_bit=rrep.n_bit,
        )
        cache.record_forwarded(entry.seqno, entry.dist)
        self.unicast(out, cache.last_hop, on_fail=self._on_ctrl_link_failure)

    def _handle_n_bit(self, dst):
        """RREP arrived with N set: the reverse path was not built.

        The origin increases its own number (so the forward path can accept
        it as an advertisement) and probes along the forward path with a
        unicast RREQ carrying the D bit (Section 2.2).
        """
        self._increment_own_seq()
        entry = self.table.get(dst)
        if entry is None or not entry.is_active(self.sim.now):
            return
        self._next_rreqid += 1
        probe = LdrRreq(
            dst=dst,
            sn_dst=entry.seqno,
            rreqid=self._next_rreqid,
            src=self.node_id,
            sn_src=self.own_seq,
            fd=entry.fd,
            dist=0,
            ttl=int(entry.dist) + self.config.local_add_ttl,
            d_bit=True,
        )
        if self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, probe)
        self.unicast(probe, entry.next_hop)

    # ==================================================================
    # route errors
    # ==================================================================
    def _on_rerr(self, rerr, from_id):
        invalidated = []
        for dst, _sn in rerr.unreachable:
            entry = self.table.get(dst)
            if entry is not None and entry.valid and entry.next_hop == from_id:
                entry.invalidate()
                invalidated.append((dst, entry.seqno))
                self._notify_table_change(dst)
        if invalidated:
            self.broadcast(LdrRerr(invalidated))
            # Destinations we are actively sourcing traffic to need a new
            # route; kick discovery for those with buffered packets.
            for dst, _ in invalidated:
                if self.buffer.pending(dst):
                    self._ensure_discovery(dst)

    def _on_ctrl_link_failure(self, packet, next_hop):
        """A control unicast (RREP relay or reset probe) could not be
        delivered: the link is gone, so routes through it are too.  The
        computation that was riding on the packet recovers by retrying."""
        broken = self._invalidate_via(next_hop)
        if broken:
            self.broadcast(
                LdrRerr([(d, self.table[d].seqno) for d in broken]),
                initiated=True,
            )

    # ==================================================================
    # misc helpers
    # ==================================================================
    def _purge_rreq_cache(self):
        # The size guard is duplicated at the _on_rreq call site so the
        # per-RREQ hot path pays no call when the cache is small.
        now = self.sim.now
        if len(self.rreq_cache) < 256:
            return
        dead = [k for k, v in self.rreq_cache.items() if v.expiry < now]
        for k in dead:
            del self.rreq_cache[k]
