"""CSMA/CA medium access control.

A packet-level abstraction of IEEE 802.11 DCF, keeping the properties the
routing results depend on:

* **carrier sense** — a node defers while it can hear a transmission (the
  channel sets the NAV of every node in range);
* **random backoff** — uniform slots, contention window doubling on
  unicast retry, which serializes contending neighbors;
* **unreliable broadcast** — one shot, no ACK, lost on collision (this is
  what makes RREQ floods lossy and is central to on-demand protocols);
* **reliable-ish unicast** — the abstracted ACK tells the sender whether
  the next hop decoded the frame; after ``retry_limit`` failures the MAC
  reports a *link failure* upward, which is how AODV/DSR/LDR detect broken
  routes without hello beacons.
"""

from repro.net.packet import Frame
from repro.net.queue import DropTailQueue


class MacConfig:
    """Timing and sizing knobs (defaults approximate 2 Mb/s 802.11)."""

    def __init__(
        self,
        bitrate=2e6,
        slot_time=20e-6,
        difs=50e-6,
        sifs=10e-6,
        cw_min=31,
        cw_max=1023,
        retry_limit=7,
        header_bytes=34,
        ack_time=120e-6,
        queue_capacity=64,
    ):
        self.bitrate = bitrate
        self.slot_time = slot_time
        self.difs = difs
        self.sifs = sifs
        self.cw_min = cw_min
        self.cw_max = cw_max
        self.retry_limit = retry_limit
        self.header_bytes = header_bytes
        self.ack_time = ack_time
        self.queue_capacity = queue_capacity


class _TxJob:
    """One queued frame plus its retry state and failure callback."""

    __slots__ = ("frame", "retries", "on_fail")

    def __init__(self, frame, on_fail):
        self.frame = frame
        self.retries = 0
        self.on_fail = on_fail


class CsmaMac:
    """Per-node MAC entity.

    Upper layers call :meth:`send`; the MAC calls ``receive_fn(packet,
    from_id)`` for decoded frames and the job's ``on_fail(packet,
    next_hop)`` when unicast retries are exhausted.
    """

    def __init__(self, sim, node_id, channel, config=None, metrics=None):
        self.sim = sim
        self.node_id = node_id
        self.channel = channel
        self.config = config or MacConfig()
        self.metrics = metrics
        self.receive_fn = None
        # Optional tap for frames addressed to other nodes (overhearing);
        # set by protocols that snoop (DSR).  fn(packet, sender, link_dst).
        self.promiscuous_fn = None
        self.queue = DropTailQueue(self.config.queue_capacity)
        self._rng = sim.stream("mac.%d" % node_id)
        # Profiling registry (repro.obs); deterministic counters only.
        self._prof = getattr(sim, "profiler", None)
        self._nav = 0.0  # medium considered busy until this time
        self._current = None  # _TxJob on the air / awaiting outcome
        self._tx_end = 0.0
        self._wait_event = None
        self.down = False  # True while the node is crashed
        # Reception state: the latest end of any frame this radio has
        # heard, kept across crash and reboot like the medium itself, and
        # the one airing it may still be receiving cleanly (see hear),
        # which a crash loses (see shutdown).
        self._rx_end = 0.0
        self._rx_clean = None

    # ------------------------------------------------------------------
    # upper-layer API
    # ------------------------------------------------------------------
    def send(self, packet, next_hop=None, on_fail=None):
        """Queue ``packet`` for transmission.

        ``next_hop=None`` broadcasts.  ``on_fail(packet, next_hop)`` fires
        when a unicast cannot be delivered after all retries.  Returns False
        when the interface queue is full (the packet is dropped).
        """
        if self.down:
            # A crashed radio silently discards everything — the backstop
            # for protocol timers that fire between crash and teardown.
            return False
        if self._prof is not None:
            self._prof.count("mac.sends")
        frame = Frame(packet, self.node_id, next_hop)
        job = _TxJob(frame, on_fail)
        if not self.queue.push(job):
            # Interface-queue overflow is congestion, not a broken link:
            # the packet is dropped and counted, but the routing layer is
            # NOT told the next hop failed (that would trigger spurious
            # route errors and rediscovery storms under load).
            if self.metrics is not None:
                self.metrics.on_queue_drop(self.node_id, packet)
            return False
        self._kick()
        return True

    def shutdown(self):
        """Power the radio off (node crash): lose queue and in-flight state.

        The frame this radio is receiving cleanly is lost too, even if the
        node reboots before the frame completes.
        """
        self.down = True
        if self._rx_clean is not None and self._rx_end > self.sim.now:
            self._rx_clean.corrupt.add(self.node_id)
            self._rx_clean = None
        self.queue.clear()
        if self._wait_event is not None:
            self._wait_event.cancel()
            self._wait_event = None
        self._current = None
        self._tx_end = 0.0

    def reset(self):
        """Power the radio back on with factory-fresh link state (reboot)."""
        self.down = False
        self._nav = 0.0
        self._current = None
        self._tx_end = 0.0
        self.receive_fn = None
        self.promiscuous_fn = None

    # ------------------------------------------------------------------
    # channel-facing API
    # ------------------------------------------------------------------
    def set_nav(self, busy_until):
        """Channel signal: medium busy until ``busy_until``."""
        if busy_until > self._nav:
            self._nav = busy_until

    def hear(self, airing, now):
        """Channel signal: ``airing`` starts reaching this radio at ``now``.

        The medium is busy until the frame ends (CSMA).  The copy is lost
        if the radio is transmitting (half duplex) or already receiving
        (no capture: the frame in flight is lost too).  Overlapping
        receptions are always both lost, so at most one in flight is
        clean: ``_rx_clean``, the latest arrival if neither applied to it.
        Something is in flight exactly when ``_rx_end > now``.
        """
        end = airing.end
        if end > self._nav:
            self._nav = end
        if self._rx_end > now:
            ongoing = self._rx_clean
            if ongoing is not None:
                ongoing.corrupt.add(self.node_id)
            airing.corrupt.add(self.node_id)
            self._rx_clean = None
        elif self._current is not None and now < self._tx_end:
            airing.corrupt.add(self.node_id)
            self._rx_clean = None
        else:
            self._rx_clean = airing
        if end > self._rx_end:
            self._rx_end = end

    def handle_frame(self, frame):
        """A frame addressed to us (or broadcast) decoded successfully.

        Returns False when the radio is down and the frame is lost.
        """
        if self.down:
            return False
        if self.receive_fn is not None:
            self.receive_fn(frame.packet, frame.sender)
        return True

    def on_tx_outcome(self, frame, decoded):
        """Channel reports whether our unicast was decoded by its next hop."""
        job = self._current
        if job is None or job.frame is not frame:
            return
        if decoded:
            self._finish_job()
            return
        job.retries += 1
        if job.retries > self.config.retry_limit:
            self._finish_job()
            if self.metrics is not None:
                self.metrics.on_mac_give_up(self.node_id, frame.packet)
            if job.on_fail is not None:
                job.on_fail(frame.packet, frame.link_dst)
        else:
            # Retry stays at the head of the line with a wider window.
            self._schedule_attempt(job)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _kick(self):
        """Start serving the queue if idle."""
        if self._current is not None or self._wait_event is not None:
            return
        job = self.queue.pop()
        if job is None:
            return
        self._current = job
        self._schedule_attempt(job)

    def _schedule_attempt(self, job):
        cw = min(self.config.cw_min * (2 ** job.retries) + (2 ** job.retries - 1),
                 self.config.cw_max)
        backoff = self._rng.randint(0, cw) * self.config.slot_time
        wait = max(0.0, self._nav - self.sim.now) + self.config.difs + backoff
        self._wait_event = self.sim.schedule(wait, self._attempt, job)

    def _attempt(self, job):
        self._wait_event = None
        if self.sim.now < self._nav:
            # Someone grabbed the medium during our backoff; re-contend.
            self._schedule_attempt(job)
            return
        frame = job.frame
        duration = self._duration(frame.packet)
        self._tx_end = self.sim.now + duration
        self._nav = max(self._nav, self._tx_end)
        if self.metrics is not None:
            self.metrics.on_transmit(self.node_id, frame.packet, retry=job.retries > 0)
        self.channel.transmit(frame, duration)
        if frame.is_broadcast:
            # No ACK: the job completes when the frame leaves the air.
            self.sim.schedule(duration, self._finish_if_current, job)

    def _duration(self, packet):
        bits = (packet.size_bytes + self.config.header_bytes) * 8
        return bits / self.config.bitrate

    def _finish_if_current(self, job):
        if self._current is job:
            self._finish_job()

    def _finish_job(self):
        self._current = None
        self._kick()
