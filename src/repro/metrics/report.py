"""Summaries of one run, matching the paper's six metrics."""

#: The scalar fields of a result row, in row order.  ``as_dict`` adds one
#: more, ``invariant_breakdown``: a per-kind dict whose total is
#: ``invariant_violations``.  Exports of every scalar (a merge's
#: ``rows.csv``) read this list, so a new row field is one edit here.
ROW_FIELDS = (
    "delivery_ratio",
    "mean_latency",
    "mean_hops",
    "network_load",
    "rreq_load",
    "rrep_init_per_rreq",
    "rrep_recv_per_rreq",
    "mean_destination_seqno",
    "data_originated",
    "data_delivered",
    "control_transmissions",
    "loop_violations",
    "invariant_violations",
)


class RunReport:
    """Derived metrics computed from a :class:`MetricsCollector`.

    All ratios guard against empty runs (zero packets) by returning 0.0, so
    short smoke-test simulations never divide by zero.
    """

    def __init__(self, collector, profile=None):
        self.c = collector
        #: Optional :class:`~repro.obs.profile.Profiler` captured from the
        #: run's simulator.  Kept out of :meth:`as_dict` on purpose: rows
        #: are cached and compared byte-for-byte across executions, and
        #: the profile's phase timers are wall-clock host facts.
        self.profile = profile

    def profile_dict(self):
        """Profiling snapshot (``{"counters", "timers"}``), or ``{}``.

        Counters (event dispatches, transmits, MAC activity) are
        deterministic per trial; timers are indicative wall-clock only —
        see :mod:`repro.obs.profile`.
        """
        if self.profile is None:
            return {}
        return self.profile.snapshot()

    @property
    def data_originated(self):
        return self.c.data_originated

    @property
    def data_delivered(self):
        return self.c.data_delivered

    @property
    def delivery_ratio(self):
        """Fraction of originated CBR packets received at destinations."""
        if self.c.data_originated == 0:
            return 0.0
        return self.c.data_delivered / self.c.data_originated

    @property
    def mean_latency(self):
        """Mean end-to-end latency of delivered data packets (seconds)."""
        if self.c.data_delivered == 0:
            return 0.0
        return self.c.latency_sum / self.c.data_delivered

    @property
    def mean_hops(self):
        if self.c.data_delivered == 0:
            return 0.0
        return self.c.hop_sum / self.c.data_delivered

    @property
    def control_transmissions(self):
        """All control packets transmitted, hop-wise."""
        return sum(self.c.control_transmissions.values())

    @property
    def network_load(self):
        """Control packets transmitted per received data packet."""
        if self.c.data_delivered == 0:
            return float(self.control_transmissions)
        return self.control_transmissions / self.c.data_delivered

    @property
    def rreq_load(self):
        """RREQ transmissions per received data packet."""
        rreqs = self.c.control_transmissions.get("rreq", 0)
        if self.c.data_delivered == 0:
            return float(rreqs)
        return rreqs / self.c.data_delivered

    @property
    def rrep_init_per_rreq(self):
        """RREPs initiated per RREQ initiated."""
        rreqs = self.c.control_initiated.get("rreq", 0)
        if rreqs == 0:
            return 0.0
        return self.c.control_initiated.get("rrep", 0) / rreqs

    @property
    def rrep_recv_per_rreq(self):
        """Hop-wise usable RREPs received per RREQ initiated."""
        rreqs = self.c.control_initiated.get("rreq", 0)
        if rreqs == 0:
            return 0.0
        return self.c.usable_rreps_received / rreqs

    @property
    def loop_violations(self):
        """Loop/ordering breaches recorded by the invariant monitor.

        Zero is the paper's Theorem 4 / Theorem 2 claim; anything else in
        an LDR run is a reproduction bug worth failing CI over.
        """
        return self.c.loop_violations

    @property
    def invariant_violations(self):
        """Total invariant-monitor violations, all kinds."""
        return sum(self.c.invariant_violations.values())

    @property
    def mean_destination_seqno(self):
        """Mean final own-sequence counter over observed destinations (Fig 7)."""
        if not self.c.seqno_final:
            return 0.0
        return sum(self.c.seqno_final.values()) / len(self.c.seqno_final)

    def as_dict(self):
        """All metrics as a plain dict (used by the experiment runner)."""
        row = {name: getattr(self, name) for name in ROW_FIELDS}
        row["invariant_breakdown"] = dict(
            sorted(self.c.invariant_violations.items())
        )
        return row

    def __repr__(self):
        return (
            "RunReport(delivery={:.3f}, latency={:.4f}s, load={:.2f})".format(
                self.delivery_ratio, self.mean_latency, self.network_load
            )
        )
