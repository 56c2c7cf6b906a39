"""The wireless medium.

A unit-disk propagation model: a transmission is heard by every node within
``transmission_range`` metres of the sender at the moment transmission
starts.  Reception fails when

* the receiver is itself transmitting during the frame (half duplex), or
* another frame overlaps the reception at that receiver (collision — both
  frames are corrupted, the standard no-capture model).

Carrier is signalled to all nodes in range so their MACs defer (CSMA).

Each ``transmit`` makes one :class:`_Airing` record, shared by every
receiver's copy, and each receiving radio keeps its own collision state
(:meth:`~repro.net.mac.CsmaMac.hear`).

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


class _Airing:
    """One frame on the air: every receiver's copy shares this record."""

    __slots__ = ("frame", "end", "corrupt", "decoded")

    def __init__(self, frame, end):
        self.frame = frame
        self.end = end
        # Receiver ids whose copy is corrupted (collision, half duplex or
        # fuzz); a fuzz duplicate shares its receiver's entry.
        self.corrupt = set()
        # A unicast's destination decoded it (the abstracted ACK's answer).
        self.decoded = False


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
        # Observers called as fn(sender_id, frame, receiver_ids) on each
        # transmission; used by metrics and by tests.  receiver_ids is
        # the frame's completion batch too: observers must not mutate it.
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
        # Same filters as _is_alive/link_allowed, inlined: this runs for
        # every candidate of every transmit.  The index only returns
        # attached ids, so every candidate has a node.
        nodes = self.nodes
        denied = self._denied_links
        return [other_id for other_id in self.index.near(node_id, t)
                if nodes[other_id].alive
                and not (denied
                         and frozenset((node_id, other_id)) in denied)]

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
        The list is also the frame's completion batch, so callers and
        observers must not mutate it.  For unicast frames the sender's
        MAC is told the outcome via ``on_tx_outcome(frame, success)``
        once the frame (plus an abstracted ACK turnaround) completes.
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

        nodes = self.nodes
        link_dst = frame.link_dst
        if (link_dst is not None and link_dst in nodes
                and self._is_alive(link_dst)
                and self.link_allowed(sender_id, link_dst)):
            # Virtual RTS/CTS: 802.11 protects unicast exchanges against
            # hidden terminals by having the receiver's neighborhood defer
            # (the CTS).  Model that by NAV-ing the destination's neighbors
            # for the exchange, even those the sender cannot reach.
            for nid in self.neighbors_of(link_dst):
                if nid != sender_id:
                    nodes[nid].mac.set_nav(end)
        # Every receiver's radio hears the frame: CSMA carrier (it defers
        # until the frame ends), half duplex, and mutual corruption with
        # any reception it has in flight.
        airing = _Airing(frame, end)
        fuzz_fn = self.fuzz_fn
        if fuzz_fn is None:
            for rid in receiver_ids:
                nodes[rid].mac.hear(airing, now)
            batch = receiver_ids
        else:
            corrupt = airing.corrupt
            schedule = self.sim.schedule
            batch = []
            for rid in receiver_ids:
                nodes[rid].mac.hear(airing, now)
                extra_delay = 0.0
                duplicate = False
                fuzz = fuzz_fn(sender_id, rid, frame)
                if fuzz is not None:
                    if fuzz.corrupt:
                        corrupt.add(rid)
                    extra_delay = max(0.0, fuzz.delay)
                    duplicate = fuzz.duplicate
                if extra_delay > 0.0:
                    schedule(duration + PROPAGATION_DELAY + extra_delay,
                             self._complete_batch, airing, [rid])
                else:
                    batch.append(rid)
                if duplicate and rid not in corrupt:
                    # A fuzzed duplicate: the same frame decodes twice, a
                    # bit later, as if a stale copy echoed through the
                    # medium.
                    schedule(duration + 2 * PROPAGATION_DELAY + extra_delay,
                             self._complete_batch, airing, [rid])
        # All on-time receptions of this frame complete at the same
        # instant, so ONE event carries the whole batch: per-receiver
        # delivery order is the list order, and the event count per
        # transmission is 1 instead of O(receivers) — the single biggest
        # event-queue load in dense scenarios.  Only fuzz-delayed and
        # duplicated receptions (strictly later times) get their own
        # events, each a one-element batch.
        if batch:
            self.sim.schedule(duration + PROPAGATION_DELAY,
                              self._complete_batch, airing, batch)

        if link_dst is not None:
            # Abstracted ACK: the sender learns the outcome shortly after the
            # frame ends.  If the destination was out of range it never
            # decodes, so 'decoded' stays False.
            self.sim.schedule(duration + 2 * PROPAGATION_DELAY,
                              self._report_unicast, nodes[sender_id], airing)
        return receiver_ids

    def _complete_batch(self, airing, batch):
        """Complete ``airing`` at the receiver ids in ``batch``, in list
        order: every on-time reception in the order the receivers were
        enumerated at transmit time, or one fuzz-delayed or duplicated
        reception.

        Every decoded copy reaches the protocol through
        :meth:`~repro.net.mac.CsmaMac.handle_frame`; the MAC's receive
        counters are bumped once per batch.
        """
        frame = airing.frame
        corrupt = airing.corrupt
        link_dst = frame.link_dst
        nodes = self.nodes
        heard = 0
        mac = None
        for receiver_id in batch:
            if receiver_id in corrupt:
                continue
            receiver = nodes[receiver_id]
            if not receiver.alive:
                # Crashed while the frame was in flight: nothing decodes,
                # and a unicast toward it is never acknowledged.
                continue
            if link_dst is None or link_dst == receiver_id:
                if link_dst is not None:
                    airing.decoded = True
                mac = receiver.mac
                if mac.handle_frame(frame):
                    heard += 1
            elif receiver.mac.promiscuous_fn is not None:
                # Frames addressed to others reach promiscuous listeners
                # (DSR-style snooping: route shortening, cache learning).
                receiver.mac.promiscuous_fn(frame.packet, frame.sender,
                                            link_dst)
        if heard:
            if self._prof is not None:
                self._prof.count("mac.frames_rx", heard)
            # Every radio on a channel reports to the one collector.
            if mac.metrics is not None:
                mac.metrics.on_mac_receive(frame, heard)

    def _report_unicast(self, sender, airing):
        sender.mac.on_tx_outcome(airing.frame, airing.decoded)
