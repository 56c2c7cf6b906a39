"""Mobility model interface."""


class MobilityModel:
    """Maps ``(node_id, time)`` to a position in metres.

    ``position`` must be a *pure* function of ``(node_id, t)`` for a given
    model instance: the channel's spatial index
    (:mod:`repro.net.spatial`) memoizes whole-network position snapshots
    on that assumption.  Models that mutate placement outside that
    contract (e.g. :meth:`~repro.mobility.static.StaticPlacement.move`)
    must bump :attr:`version` on every mutation so memoized snapshots are
    invalidated immediately, not at the next event.
    """

    #: Bumped by models whenever positions change other than as a pure
    #: function of time.  Part of the spatial index's memo key.
    version = 0

    #: True when positions do not depend on ``t`` at all (fixed
    #: placements); lets the spatial index keep one snapshot for the whole
    #: run instead of one per event.
    static = False

    #: Optional Lipschitz bound: when not ``None``, the model promises
    #: that no node moves faster than this many metres per simulated
    #: second (``|position(n, t1) - position(n, t0)| <= max_speed *
    #: |t1 - t0|``).  The spatial index uses it to keep position
    #: snapshots and candidate lists across events, widening its
    #: certainty bands by the worst-case drift and its lists by a skin of
    #: twice the allowance instead of rebuilding per event.  ``None``
    #: (unknown) falls back to per-event rebuilds — always safe, never
    #: wrong.
    max_speed = None

    def position(self, node_id, t):
        """Return the node's ``(x, y)`` at simulation time ``t``."""
        raise NotImplementedError

    def positions_at(self, node_ids, t):
        """Bulk position lookup: ``{node_id: (x, y)}`` at time ``t``.

        The spatial index builds its snapshots through this hook;
        subclasses with a cheaper bulk path may override it, as long as
        the values are *identical* to per-node :meth:`position` calls
        (the scan/grid equivalence guarantee rides on it).
        """
        position = self.position
        return {node_id: position(node_id, t) for node_id in node_ids}

    def node_ids(self):
        """The node ids this model knows about."""
        raise NotImplementedError
