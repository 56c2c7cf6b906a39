"""Base routing-protocol API and the on-demand route discovery (Procedure 1)."""

from collections import defaultdict, deque

from repro.sim.timers import Timer


class RoutingProtocol:
    """Interface between a node's MAC and a routing implementation.

    Subclasses implement :meth:`send_data` (route or buffer + discover) and
    :meth:`on_packet` (dispatch on control-packet type).  The helpers here
    standardize transmission accounting so the paper's "initiated" vs
    "transmitted" metric distinction is applied uniformly, and
    :meth:`_transit` is the one hop-by-hop data prologue (a subclass that
    uses it carries ``config.data_hop_limit``).
    """

    name = "base"

    def __init__(self, sim, node, metrics=None):
        self.sim = sim
        self.node = node
        self.node_id = node.node_id
        self.mac = node.mac
        self.metrics = metrics
        self._proto_rng = sim.stream("proto.%d" % node.node_id)
        # Optional observer: fn(protocol, destination) after any routing
        # table change.  The invariant monitor plugs in here.
        self.table_change_hook = None
        # Set by stop(): periodic ticks check this flag so a crashed
        # node's discarded protocol instance goes quiet.
        self.stopped = False

    # ------------------------------------------------------------------
    # lifecycle / data path (subclasses implement)
    # ------------------------------------------------------------------
    def start(self):
        """Called once when the simulation starts."""

    def stop(self):
        """Cease operation (the node crashed); the instance is discarded.

        Subclasses with pending :class:`~repro.sim.timers.Timer` objects
        should override, call ``super().stop()``, and cancel them;
        recurring self-scheduled ticks must early-return on ``stopped``.
        The MAC is shut down separately, so a stale tick that slips
        through cannot actually transmit.
        """
        self.stopped = True
        self.table_change_hook = None

    def send_data(self, packet):
        raise NotImplementedError

    def on_packet(self, packet, from_id):
        raise NotImplementedError

    def successor(self, dst):
        """Current next hop toward ``dst`` or None (for the loop audit)."""
        return None

    def route_metric(self, dst):
        """(seqno, feasible_distance, distance) triple for invariant audits.

        Protocols without those notions return ``None``; the loop audit
        then only verifies acyclicity, not the LDR ordering criterion.
        """
        return None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def broadcast(self, packet, initiated=False, jitter=0.0):
        """One-hop broadcast; ``initiated=True`` counts the origination.

        ``jitter`` desynchronizes *relayed* floods: neighbors that all
        received the same RREQ would otherwise rebroadcast within
        microseconds of each other and collide (the classic broadcast-storm
        problem every deployed on-demand implementation jitters around).
        """
        if initiated and self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, packet)
        if jitter > 0.0:
            delay = self._proto_rng.uniform(0.0, jitter)
            self.sim.schedule(delay, self.mac.send, packet, None)
        else:
            self.mac.send(packet, next_hop=None)

    def unicast(self, packet, next_hop, on_fail=None, initiated=False):
        """Unicast with link-failure feedback (defaults to on_link_failure)."""
        if initiated and self.metrics is not None:
            self.metrics.on_control_initiated(self.node_id, packet)
        if on_fail is None:
            on_fail = self.on_link_failure
        self.mac.send(packet, next_hop=next_hop, on_fail=on_fail)

    def on_link_failure(self, packet, next_hop):
        """MAC gave up delivering ``packet`` to ``next_hop``."""

    def deliver_local(self, packet):
        self.node.deliver(packet)

    def drop_data(self, packet, reason):
        if self.metrics is not None:
            self.metrics.on_data_dropped(self.node_id, packet, reason)

    def _transit(self, packet):
        """A data packet crossed one link to us: True when it travels on.

        Counts the hop, delivers the packet when we are its sink, and
        drops it once it has crossed more than ``config.data_hop_limit``
        links.
        """
        packet.hops += 1  # one link traversed, even when we are the sink
        if packet.dst == self.node_id:
            self.deliver_local(packet)
            return False
        if packet.hops > self.config.data_hop_limit:
            self.drop_data(packet, "hop_limit")
            return False
        return True

    def _notify_table_change(self, dst):
        if self.table_change_hook is not None:
            self.table_change_hook(self, dst)


class PacketBuffer:
    """Data packets parked per destination while discovery runs.

    Mirrors the paper's Procedure 1: "A should queue the packet that
    requires the route" and drop queued packets when the final discovery
    attempt fails.  Entries also age out individually so stale data does
    not burst onto a route discovered much later.
    """

    def __init__(self, sim, capacity_per_dst=64, max_age=30.0):
        self.sim = sim
        self.capacity = capacity_per_dst
        self.max_age = max_age
        self._buffers = defaultdict(deque)

    def push(self, dst, packet):
        """Buffer ``packet`` for ``dst``; returns False when full (dropped)."""
        buf = self._buffers[dst]
        if len(buf) >= self.capacity:
            return False
        buf.append((self.sim.now, packet))
        return True

    def pop_all(self, dst, drop):
        """Remove and return the fresh packets waiting for ``dst``.

        Each packet older than ``max_age`` goes to ``drop(packet,
        "buffer_expired")`` instead, so every buffered packet is either
        returned or counted.  Callers pass their protocol's ``drop_data``
        at call time: the trace recorder rebinds that attribute after the
        buffer is built.
        """
        buf = self._buffers.pop(dst, ())
        cutoff = self.sim.now - self.max_age
        fresh = []
        for when, pkt in buf:
            if when >= cutoff:
                fresh.append(pkt)
            else:
                drop(pkt, "buffer_expired")
        return fresh

    def drop_all(self, dst):
        """Discard everything waiting for ``dst`` (discovery failed)."""
        buf = self._buffers.pop(dst, ())
        return [pkt for (_, pkt) in buf]

    def pending(self, dst):
        return len(self._buffers.get(dst, ()))


class Discovery:
    """One destination's route discovery in progress (Procedure 1).

    At most one per destination.  It ends on the first usable reply, or
    its timer fires and the origin retries with a wider ring (a fresh
    request per attempt) until the last attempt fails.
    """

    __slots__ = ("dst", "attempt", "ttl", "timer")

    def __init__(self, dst, attempt, ttl, timer):
        self.dst = dst
        self.attempt = attempt
        self.ttl = ttl
        self.timer = timer


def ring_ttl(config, attempt, start):
    """Expanding-ring TTL of ``attempt`` (0-based) for a first ring ``start``.

    Widens by ``config.ttl_increment`` per retry; past
    ``config.ttl_threshold``, and on the last attempt, the request floods
    the network diameter (AODV's ring, which LDR adopts).
    """
    if attempt >= config.rreq_retries:
        return config.net_diameter
    ttl = start + attempt * config.ttl_increment
    if ttl > config.ttl_threshold:
        return config.net_diameter
    return ttl


class RouteDiscovery(RoutingProtocol):
    """Procedure 1 for the on-demand protocols (LDR, AODV and DSR).

    Owns the packet buffer and the per-destination :class:`Discovery`
    records: buffer a packet and discover, retry on timeout or drop the
    queue after the last attempt, flush the queue once a route exists,
    re-buffer the originator's packets after a MAC give-up, and cancel
    the timers when the node crashes.  A subclass supplies the rest:

    * ``_ring(dst, attempt)`` -> ``(ttl, timeout)`` of an attempt;
    * ``_solicit(discovery)`` floods that attempt's request;
    * ``_route(dst)`` -> a usable route to ``dst`` or None;
    * ``_forward(packet, route)`` sends a data packet along it.

    ``config`` carries ``buffer_capacity``, ``buffer_max_age`` and
    ``rreq_retries``.
    """

    def __init__(self, sim, node, config, metrics=None):
        super().__init__(sim, node, metrics)
        self.config = config
        self.buffer = PacketBuffer(
            sim, config.buffer_capacity, config.buffer_max_age
        )
        self.discoveries = {}  # dst -> Discovery

    def stop(self):
        """Node crash: cancel discovery timers so the instance goes quiet."""
        super().stop()
        for discovery in self.discoveries.values():
            discovery.timer.cancel()
        self.discoveries.clear()

    def _buffer_and_discover(self, packet):
        """No route for a packet we send: queue it and discover one."""
        if not self.buffer.push(packet.dst, packet):
            self.drop_data(packet, "buffer_full")
        self._ensure_discovery(packet.dst)

    def _on_data_give_up(self, packet):
        """The MAC gave up on data ``packet``: its originator queues it and
        rediscovers; a forwarder drops it."""
        if packet.src != self.node_id:
            self.drop_data(packet, "link_break")
        elif self.buffer.push(packet.dst, packet):
            self._ensure_discovery(packet.dst)
        else:
            self.drop_data(packet, "buffer_full")

    def _ensure_discovery(self, dst):
        if dst not in self.discoveries:
            self._start_attempt(dst, 0)

    def _start_attempt(self, dst, attempt):
        ttl, timeout = self._ring(dst, attempt)
        timer = Timer(self.sim, lambda d=dst: self._on_discovery_timeout(d))
        discovery = Discovery(dst, attempt, ttl, timer)
        self.discoveries[dst] = discovery
        # The timer reserves its tie-break sequence number before the
        # request is broadcast; swapping the two would reorder events.
        timer.start(timeout)
        self._solicit(discovery)

    def _on_discovery_timeout(self, dst):
        discovery = self.discoveries.pop(dst, None)
        if discovery is None:
            return
        if discovery.attempt < self.config.rreq_retries:
            self._start_attempt(dst, discovery.attempt + 1)
            return
        # Final attempt failed: inform packet origins and drop the queue.
        for packet in self.buffer.drop_all(dst):
            self.drop_data(packet, "no_route_found")

    def _complete_discovery(self, dst):
        """A reply reached us: end the discovery and flush the queue."""
        discovery = self.discoveries.pop(dst, None)
        if discovery is not None:
            discovery.timer.cancel()
        route = self._route(dst)
        if route is None:
            return
        for packet in self.buffer.pop_all(dst, self.drop_data):
            self._forward(packet, route)
