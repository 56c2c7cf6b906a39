"""Event counters for one simulation run.

Terminology follows the paper exactly:

* a **transmitted** packet count includes every hop-wise transmission;
* an **initiated** packet count includes only the first transmission of a
  packet (at its originator).

The MAC reports transmissions; protocols report initiations and usable
RREP receptions; the application layer reports originated/delivered data.
"""

from collections import Counter


class MetricsCollector:
    """Accumulates raw counts; knows nothing about protocols."""

    def __init__(self, sim=None):
        self.sim = sim
        # data plane
        self.data_originated = 0
        self.data_delivered = 0
        self.data_transmissions = 0
        self.latency_sum = 0.0
        self.hop_sum = 0
        self.data_dropped = Counter()  # reason -> count
        # control plane, by packet.kind
        self.control_transmissions = Counter()
        self.control_initiated = Counter()
        # MAC level
        self.mac_retries = 0
        self.queue_drops = 0
        self.mac_give_ups = 0
        self.mac_receptions = 0
        # protocol-specific observations
        self.usable_rreps_received = 0
        self.seqno_final = {}  # destination id -> final own-sequence counter
        self.duplicate_delivered = 0
        self._delivered_uids = set()
        # invariant audits (the fault-aware invariant monitor)
        self.invariant_violations = Counter()  # kind -> count
        self.loop_violations = 0

    # ------------------------------------------------------------------
    # application layer
    # ------------------------------------------------------------------
    def on_data_originated(self, node_id, packet):
        self.data_originated += 1

    def on_data_delivered(self, node_id, packet):
        if packet.uid in self._delivered_uids:
            self.duplicate_delivered += 1
            return
        self._delivered_uids.add(packet.uid)
        self.data_delivered += 1
        if self.sim is not None:
            self.latency_sum += self.sim.now - packet.created_at
        self.hop_sum += packet.hops

    def on_data_dropped(self, node_id, packet, reason):
        self.data_dropped[reason] += 1

    # ------------------------------------------------------------------
    # MAC layer
    # ------------------------------------------------------------------
    def on_transmit(self, node_id, packet, retry=False):
        if retry:
            self.mac_retries += 1
        if packet.is_control:
            self.control_transmissions[packet.kind] += 1
        else:
            self.data_transmissions += 1

    def on_mac_receive(self, frame, count):
        """``count`` radios decoded ``frame`` (one completion batch)."""
        self.mac_receptions += count

    def on_queue_drop(self, node_id, packet):
        self.queue_drops += 1

    def on_mac_give_up(self, node_id, packet):
        self.mac_give_ups += 1

    # ------------------------------------------------------------------
    # routing protocols
    # ------------------------------------------------------------------
    def on_control_initiated(self, node_id, packet):
        self.control_initiated[packet.kind] += 1

    def on_usable_rrep(self, node_id):
        """A hop-wise usable RREP reception (paper's 'RREP Recv' metric)."""
        self.usable_rreps_received += 1

    def observe_final_seqno(self, destination_id, counter_value):
        """Record a destination's own sequence counter at end of run."""
        self.seqno_final[destination_id] = counter_value

    # ------------------------------------------------------------------
    # invariant audits
    # ------------------------------------------------------------------
    def on_invariant_violation(self, kind, detail=None):
        """The invariant monitor saw a violation of the given kind.

        ``loop`` and ``ordering`` kinds also count toward the paper-facing
        ``loop_violations`` total (Theorem 4 / Theorem 2 breaches).
        """
        self.invariant_violations[kind] += 1
        if kind in ("loop", "ordering"):
            self.loop_violations += 1
