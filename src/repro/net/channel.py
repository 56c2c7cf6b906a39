"""The wireless medium.

A unit-disk propagation model: a transmission is heard by every node within
``transmission_range`` metres of the sender at the moment transmission
starts.  Reception fails when

* the receiver is itself transmitting during the frame (half duplex), or
* another frame overlaps the reception at that receiver (collision — both
  frames are corrupted, the standard no-capture model).

Carrier is signalled to all nodes in range so their MACs defer (CSMA).

Positions come from the mobility model; a transmission uses the positions
at its start time.  This matches the granularity of packet-level simulators
such as GloMoSim: links do not flip mid-frame.

Geometry queries go through a spatial index (:mod:`repro.net.spatial`):
:class:`~repro.net.spatial.GridIndex` by default, while tests and the
kernel bench pass the brute-force reference
:class:`~repro.net.spatial.ScanIndex`.  The two are observationally
identical — same neighbor sets in the same order, same RNG draw order,
byte-identical metrics for any (seed, plan) — the grid is purely a fast
path.  One position snapshot per event-time serves the sender-coverage
and virtual-CTS queries of a ``transmit``, so the mobility model is
consulted exactly once per node per transmission instead of twice.

The channel is also where the fault layer (:mod:`repro.faults`) plugs in:

* a **link-deny filter** (:meth:`WirelessChannel.deny_link`) removes a pair
  from the connectivity relation regardless of distance — blackouts and
  partitions are built from denied pairs;
* crashed nodes (``node.alive`` False) neither receive nor acknowledge
  frames, even ones already in flight toward them;
* an optional **fuzzer hook** (:attr:`WirelessChannel.fuzz_fn`) lets the
  fault injector corrupt, delay, or duplicate individual receptions from
  its own seeded RNG stream.
"""

from repro.net.spatial import GridIndex

PROPAGATION_DELAY = 1e-6  # seconds; ~300 m at light speed, kept constant


class FuzzDecision:
    """What the fault injector wants done to one reception."""

    __slots__ = ("corrupt", "delay", "duplicate")

    def __init__(self, corrupt=False, delay=0.0, duplicate=False):
        self.corrupt = corrupt
        self.delay = delay
        self.duplicate = duplicate


class Reception:
    """Book-keeping for one frame arriving at one receiver."""

    __slots__ = ("frame", "end", "corrupted")

    def __init__(self, frame, end, corrupted=False):
        self.frame = frame
        self.end = end
        self.corrupted = corrupted


class WirelessChannel:
    """Connects node MACs through the shared medium."""

    def __init__(self, sim, mobility, transmission_range=275.0,
                 index=GridIndex):
        self.sim = sim
        self.mobility = mobility
        self.range = float(transmission_range)
        # Profiling registry (repro.obs); deterministic counters only in
        # this hot path.  getattr: hand-built stub sims in tests may not
        # carry one.
        self._prof = getattr(sim, "profiler", None)
        # Spatial fast path for neighbor/position queries; tests pass the
        # brute-force ScanIndex as the reference.  Observationally
        # identical by construction and by the equivalence suite
        # (tests/net/test_spatial_equivalence.py).
        self.index = index(sim, mobility, self.range)
        self.nodes = {}
        # receiver id -> list of in-flight Reception records
        self._receptions = {}
        # Observers called as fn(sender_id, frame, receiver_ids) on each
        # transmission; used by metrics and by tests.
        self.observers = []
        # Fault seams: unordered node pairs whose link is administratively
        # down, and an optional per-reception fuzzer installed by the
        # fault injector (fn(sender_id, receiver_id, frame) ->
        # FuzzDecision or None).
        self._denied_links = set()
        self.fuzz_fn = None

    def attach(self, node):
        """Register a node; called by :class:`~repro.net.node.Node`."""
        self.nodes[node.node_id] = node
        self._receptions[node.node_id] = []
        self.index.attach(node.node_id)

    def deny_link(self, a, b):
        """Administratively remove the (a, b) link (fault injection)."""
        self._denied_links.add(frozenset((a, b)))

    def allow_link(self, a, b):
        """Undo :meth:`deny_link`; a no-op when the pair is not denied."""
        self._denied_links.discard(frozenset((a, b)))

    def link_allowed(self, a, b):
        """False when the (a, b) pair is under a deny filter."""
        if not self._denied_links:
            return True
        return frozenset((a, b)) not in self._denied_links

    def _is_alive(self, node_id):
        node = self.nodes.get(node_id)
        return node is not None and getattr(node, "alive", True)

    def neighbors_of(self, node_id, at_time=None):
        """Node ids within transmission range of ``node_id`` right now.

        Crashed nodes and administratively denied links do not count:
        a powered-off radio neither hears nor acknowledges anything.
        """
        t = self.sim.now if at_time is None else at_time
        if self._prof is not None:
            self._prof.count("channel.neighbor_queries")
        # Same filters as _is_alive/link_allowed, inlined: this loop runs
        # for every candidate of every transmit and the per-candidate
        # method calls were a measurable slice of whole-trial time.
        nodes = self.nodes
        denied = self._denied_links
        result = []
        if denied:
            for other_id in self.index.near(node_id, t):
                node = nodes.get(other_id)
                if node is None or not node.alive:
                    continue
                if frozenset((node_id, other_id)) in denied:
                    continue
                result.append(other_id)
        else:
            for other_id in self.index.near(node_id, t):
                node = nodes.get(other_id)
                if node is not None and node.alive:
                    result.append(other_id)
        return result

    def in_range(self, a, b, at_time=None):
        """True when nodes ``a`` and ``b`` can currently hear each other."""
        if not self.link_allowed(a, b):
            return False
        if not (self._is_alive(a) and self._is_alive(b)):
            return False
        t = self.sim.now if at_time is None else at_time
        ax, ay = self.index.position(a, t)
        bx, by = self.index.position(b, t)
        dx, dy = ax - bx, ay - by
        return dx * dx + dy * dy <= self.range * self.range

    def transmit(self, frame, duration):
        """Put ``frame`` on the air for ``duration`` seconds.

        Returns the list of receiver ids the frame was launched toward
        (successful decoding is decided when each reception completes).
        For unicast frames the sender's MAC is told the outcome via
        ``on_tx_outcome(frame, success)`` once the frame (plus an
        abstracted ACK turnaround) completes.
        """
        now = self.sim.now
        end = now + duration
        sender_id = frame.sender
        # All geometry below (coverage here, the virtual CTS's receiver
        # neighborhood) is asked at the same (event, time), so the grid
        # index serves it from a single position snapshot: one mobility
        # lookup per node per transmit.
        receiver_ids = self.neighbors_of(sender_id)
        if self._prof is not None:
            self._prof.count("channel.transmits")
            self._prof.count("channel.receptions", len(receiver_ids))

        for obs in self.observers:
            obs(sender_id, frame, receiver_ids)

        unicast_result = {"decoded": False}
        if (not frame.is_broadcast and frame.link_dst in self.nodes
                and self._is_alive(frame.link_dst)
                and self.link_allowed(sender_id, frame.link_dst)):
            # Virtual RTS/CTS: 802.11 protects unicast exchanges against
            # hidden terminals by having the receiver's neighborhood defer
            # (the CTS).  Model that by NAV-ing the destination's neighbors
            # for the exchange, even those the sender cannot reach.
            for nid in self.neighbors_of(frame.link_dst):
                if nid != sender_id:
                    self.nodes[nid].mac.set_nav(end)
        # All on-time receptions of this frame complete at the same
        # instant, and their completion events were always scheduled
        # back-to-back (consecutive sequence numbers, so nothing can ever
        # interleave between them).  Fold them into ONE event carrying
        # the whole batch: per-receiver delivery order is the list order,
        # which is exactly the order the individual events fired in, and
        # the event count per transmission drops from O(receivers) to 1 —
        # the single biggest event-queue load in dense scenarios.  Only
        # fuzz-delayed and duplicated receptions (strictly later times)
        # keep their own events, each a one-element batch.
        batch = []
        nodes = self.nodes
        receptions = self._receptions
        fuzz_fn = self.fuzz_fn
        schedule = self.sim.schedule
        for rid in receiver_ids:
            # CSMA carrier (everyone in range defers until the frame
            # ends) fused with the half-duplex check.
            corrupted = nodes[rid].mac.sense_carrier(end, now)
            ongoing = receptions[rid]
            for other in ongoing:
                if other.end > now:  # overlap -> mutual corruption
                    other.corrupted = True
                    corrupted = True
            extra_delay = 0.0
            duplicate = False
            if fuzz_fn is not None:
                fuzz = fuzz_fn(sender_id, rid, frame)
                if fuzz is not None:
                    corrupted = corrupted or fuzz.corrupt
                    extra_delay = max(0.0, fuzz.delay)
                    duplicate = fuzz.duplicate
            rec = Reception(frame, end, corrupted)
            ongoing.append(rec)
            if extra_delay > 0.0:
                schedule(
                    duration + PROPAGATION_DELAY + extra_delay,
                    self._complete_batch, [(rid, rec)], unicast_result,
                )
            else:
                batch.append((rid, rec))
            if duplicate and not corrupted:
                # A fuzzed duplicate: the same frame decodes twice, a bit
                # later, as if a stale copy echoed through the medium.
                dup = Reception(frame, end, False)
                ongoing.append(dup)
                schedule(
                    duration + 2 * PROPAGATION_DELAY + extra_delay,
                    self._complete_batch, [(rid, dup)], unicast_result,
                )
        if batch:
            self.sim.schedule(
                duration + PROPAGATION_DELAY,
                self._complete_batch, batch, unicast_result,
            )

        if not frame.is_broadcast:
            # Abstracted ACK: the sender learns the outcome shortly after the
            # frame ends.  If the destination was out of range it never
            # decodes, so 'decoded' stays False.
            sender = self.nodes[sender_id]
            self.sim.schedule(
                duration + 2 * PROPAGATION_DELAY,
                self._report_unicast,
                sender,
                frame,
                unicast_result,
            )
        return receiver_ids

    def _complete_batch(self, batch, unicast_result):
        """Complete a batch of ``(receiver_id, reception)`` pairs of one
        frame, in list order: every on-time reception in the order the
        receivers were enumerated at transmit time, or one fuzz-delayed
        or duplicated reception.

        Every reception in a batch carries the same frame, so its
        addressing is resolved once instead of per receiver.
        """
        receptions = self._receptions
        nodes = self.nodes
        frame = batch[0][1].frame
        link_dst = frame.link_dst
        is_broadcast = link_dst is None
        packet = frame.packet
        sender = frame.sender
        for receiver_id, rec in batch:
            try:
                receptions[receiver_id].remove(rec)
            except ValueError:
                pass
            if rec.corrupted:
                continue
            receiver = nodes[receiver_id]
            if not receiver.alive:
                # Crashed while the frame was in flight: nothing decodes,
                # and a unicast toward it is never acknowledged.
                continue
            if is_broadcast or link_dst == receiver_id:
                if link_dst == receiver_id:
                    unicast_result["decoded"] = True
                receiver.mac.handle_frame(frame)
            elif receiver.mac.promiscuous_fn is not None:
                # Frames addressed to others reach promiscuous listeners
                # (DSR-style snooping: route shortening, cache learning).
                receiver.mac.promiscuous_fn(packet, sender, link_dst)

    def _report_unicast(self, sender, frame, unicast_result):
        sender.mac.on_tx_outcome(frame, unicast_result["decoded"])
