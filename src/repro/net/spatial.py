"""Spatial indexing for the wireless channel's neighbor queries.

``WirelessChannel.neighbors_of`` / ``in_range`` dominate every trial: each
``transmit`` needs the sender's coverage set and the receiver's
neighborhood (virtual CTS), which with the naive scan is O(N) per query
and O(N²) per broadcast flood.  Two index classes
share the :class:`NeighborIndex` interface:

* :class:`GridIndex` — drift-tolerant position snapshots with per-node
  candidate lists, plus lazy exact-position memoization; the index every
  channel uses unless told otherwise (the name is historical — snapshots
  and candidate lists replaced the original cell grid);
* :class:`ScanIndex` — the original brute-force scan, kept as the
  reference that tests and the kernel bench pass to
  ``WirelessChannel(index=ScanIndex)``.

Both are **observationally identical**: the same node ids, in the
same order (channel attach order, i.e. the order nodes joined), decided by
the *same* floating-point expression ``dx*dx + dy*dy <= range*range`` on
the same position values.  Liveness and link-deny filtering stay in the
channel, so fault overlays never touch the index.

Two-tier memoization
--------------------
The fast index keeps two caches with different lifetimes:

**Exact positions** are memoized lazily per *(event epoch, query time,
mobility version)*: the first query for a node's position in that key
computes it, later queries reuse it.

* the **event epoch** (:attr:`~repro.sim.simulator.Simulator.event_epoch`)
  increments each time the scheduler dispatches an event, so a memo never
  outlives the event that built it — even a mobility model mutated
  mid-run (``StaticPlacement.move`` in tests) cannot serve stale
  positions to a later event;
* the **query time** covers repeated queries inside one event (a
  ``transmit`` computes coverage and CTS from one memo — at most one
  ``mobility.position`` call per node per transmit);
* the **mobility version** (:attr:`~repro.mobility.base.MobilityModel.
  version`) covers same-event mutation: models that move nodes outside
  their pure ``position(node_id, t)`` contract bump it.

**Position snapshots** are deliberately *stale-tolerant*.  When the
mobility model declares a Lipschitz bound (:attr:`~repro.mobility.base.
MobilityModel.max_speed`), a snapshot of every node's position built at
time ``t0`` stays trusted while the worst-case drift ``max_speed *
|t - t0|`` stays under a fraction of the transmission range
(:data:`BUCKET_SLACK`).  Each build also gives every node a **candidate
list** (a Verlet neighbor list): the nodes whose snapshot positions lie
within the margined range plus a *skin* of twice the drift allowance,
the farthest two nodes can close before the snapshot expires, so no node
off the list can be in range meanwhile.  A query loops over its short
list against two certainty radii from the triangle inequality — closer
than ``range - drift`` to the exact query point is in for sure, beyond
``range + drift`` is out for sure — and verifies only the doubtful
annulus between against *exact* positions.  A safety margin keeps both
bands strictly clear of the range boundary, so every decision agrees
bit-for-bit with the reference scan's expression; staleness can only
cost extra verification, never a wrong membership.  ``static = True``
models never drift (one snapshot and skin-free lists serve until a
``version`` bump); models with ``max_speed = None`` (unknown motion law)
rebuild per position-memo key.
"""

from itertools import islice

import numpy as np

#: Relative slack subtracted from / added to the certainty radii and
#: added to the candidate-list radius.  Drift bounds are mathematically
#: sound in the reals; this margin of one part in 10⁶ of the range keeps
#: the certainty decisions away from the boundary by six orders of
#: magnitude more than any double-rounding slop, so a band decision can
#: never disagree with the float evaluation of the canonical membership
#: expression.
CELL_MARGIN = 1.000001

#: Drift allowance for speed-bounded mobility, in (margined) transmission
#: ranges: a snapshot built at ``t0`` stays trusted while worst-case
#: drift ``max_speed * |t - t0|`` is under ``(BUCKET_SLACK - 1)`` ranges.
#: Correctness never depends on this number — the certainty bands widen
#: with the actual drift, the list skin with the allowance — it only
#: balances rebuild cost (one bulk position pass, one all-pairs list
#: screen) against list length and the width of the doubtful annulus
#: (one exact position per doubtful candidate per query).  A tenth of a
#: range keeps the annulus a few nodes wide at the paper's densities
#: while rebuilds stay rarer than one per thousand events.
BUCKET_SLACK = 1.1

#: Rows per block of the all-pairs candidate-list screen: caps its float
#: temporaries at ``2 * LIST_BLOCK * N`` doubles instead of ``2 * N²``.
LIST_BLOCK = 64


class NeighborIndex:
    """Interface the channel's geometry queries go through.

    Implementations answer *pure geometry*: which attached nodes are
    within transmission range, and where is a node right now.  They know
    nothing about liveness or administrative link state.
    """

    def attach(self, node_id):
        """Register a node; queries return ids in attach order."""
        raise NotImplementedError

    def position(self, node_id, t):
        """The node's ``(x, y)`` at time ``t`` (memoized where possible)."""
        raise NotImplementedError

    def near(self, node_id, t):
        """Ids within transmission range of ``node_id`` at ``t``.

        Excludes ``node_id`` itself; ordered by attach order, matching
        the reference scan exactly.
        """
        raise NotImplementedError


class ScanIndex(NeighborIndex):
    """Brute-force reference: O(N) per query, zero bookkeeping.

    This is byte-for-byte the channel's original loop; it exists so the
    grid's equivalence is checkable against live code, and as the
    fallback for workloads where building snapshots cannot pay off.
    """

    def __init__(self, sim, mobility, transmission_range):
        self.mobility = mobility
        self.range = float(transmission_range)
        self._order = []

    def attach(self, node_id):
        if node_id not in self._order:
            self._order.append(node_id)

    def position(self, node_id, t):
        return self.mobility.position(node_id, t)

    def near(self, node_id, t):
        x, y = self.mobility.position(node_id, t)
        limit = self.range * self.range
        result = []
        for other_id in self._order:
            if other_id == node_id:
                continue
            ox, oy = self.mobility.position(other_id, t)
            dx, dy = ox - x, oy - y
            if dx * dx + dy * dy <= limit:
                result.append(other_id)
        return result


class GridIndex(NeighborIndex):
    """Snapshot index with per-node candidate lists and lazy positions.

    A rebuild takes one bulk ``positions_at`` pass into attach-ordered
    ``(id, x, y)`` entries and screens all pairs once, with NumPy, into
    every node's candidate list; ``near`` walks only the querying node's
    list in plain Python, settling each candidate by the certainty bands
    or, in the doubtful annulus, against exact positions memoized per
    event (see module docstring).
    """

    def __init__(self, sim, mobility, transmission_range):
        self.sim = sim
        self.mobility = mobility
        self.range = float(transmission_range)
        # Static placements do not depend on time at all: one snapshot
        # serves the whole run until a move() bumps the model's version.
        self._static = bool(getattr(mobility, "static", False))
        self._scheduler = sim.scheduler
        base = self.range * CELL_MARGIN if self.range > 0 else 1.0
        max_speed = getattr(mobility, "max_speed", None)
        reach = base
        if self._static or max_speed == 0:
            # No drift ever: the snapshot lives until a version bump or a
            # new attachment.
            self._max_speed = 0.0
            self._bucket_limit = float("inf")
        elif max_speed is None:
            # Unknown motion law: no drift bound exists, so snapshots are
            # only trusted within one position-memo key (conservative:
            # rebuild whenever the event epoch / time / version moves).
            self._max_speed = 0.0
            self._bucket_limit = None
        else:
            # Speed-bounded motion: the snapshot buys each node a tenth
            # of a range of drift before a rebuild is needed
            # (BUCKET_SLACK), so two nodes can close by twice that.
            self._max_speed = float(max_speed)
            self._bucket_limit = (BUCKET_SLACK - 1.0) * base / self._max_speed
            reach += 2.0 * self._max_speed * self._bucket_limit
        self._list_reach2 = reach * reach
        self._ids = []
        # Exact positions at the current (epoch, t, version) key, filled
        # lazily one node at a time.
        self._pos_key = None
        self._pos = {}
        # Stale-tolerant snapshot as of ``_bucket_t``: attach-ordered
        # (id, x, y) entries and every attached node's candidate list of
        # them (node id -> entries; None until the first build).
        self._all = []
        self._lists = None
        self._bucket_t = 0.0
        self._bucket_version = None
        self._bucket_key = None  # position-memo key at build time
        #: Snapshot builds performed (tests assert reuse across events).
        self.builds = 0

    def attach(self, node_id):
        if node_id not in self._ids:
            self._ids.append(node_id)
            self._lists = None  # rebuild so the new node is findable

    def _pos_at(self, t):
        """The lazy exact-position memo for the current key."""
        version = getattr(self.mobility, "version", None)
        key = version if self._static else (self._scheduler.epoch, t, version)
        if key != self._pos_key:
            self._pos_key = key
            self._pos = {}
        return self._pos

    def position(self, node_id, t):
        # Never builds snapshots: point lookups (in_range) cost one
        # mobility call at most, memoized for the rest of the event.
        pos = self._pos_at(t)
        xy = pos.get(node_id)
        if xy is None:
            xy = self.mobility.position(node_id, t)
            pos[node_id] = xy
        return xy

    def _ensure_snapshot(self, t, version):
        if self._lists is not None and version == self._bucket_version:
            limit = self._bucket_limit
            if limit is None:
                if self._bucket_key == self._pos_key:
                    return
            elif abs(t - self._bucket_t) <= limit:
                return
        positions = self.mobility.positions_at(self._ids, t)
        entries = [(node_id, *positions[node_id]) for node_id in self._ids]
        # Every candidate list from one screen of all pairs of snapshot
        # positions, LIST_BLOCK rows at a time, with each node kept off
        # its own list; row-major nonzero order is attach order per row.
        xs = np.array([entry[1] for entry in entries], dtype=np.float64)
        ys = np.array([entry[2] for entry in entries], dtype=np.float64)
        close = np.empty((len(xs), len(xs)), dtype=bool)
        for lo in range(0, len(xs), LIST_BLOCK):
            d2 = np.subtract.outer(xs[lo:lo + LIST_BLOCK], xs)
            d2 *= d2
            dy = np.subtract.outer(ys[lo:lo + LIST_BLOCK], ys)
            dy *= dy
            d2 += dy
            np.less_equal(d2, self._list_reach2, out=close[lo:lo + LIST_BLOCK])
        np.fill_diagonal(close, False)
        cols = iter(np.nonzero(close)[1].tolist())
        self._lists = {
            node_id: [entries[j] for j in islice(cols, count)]
            for node_id, count in zip(self._ids, close.sum(axis=1).tolist())
        }
        self._all = entries
        self._bucket_t = t
        self._bucket_version = version
        self._bucket_key = self._pos_key
        # Seed the exact memo: positions_at is contractually bit-identical
        # to per-node position() calls at the same t.
        self._pos.update(positions)
        self.builds += 1

    def near(self, node_id, t):
        pos = self._pos_at(t)  # refresh _pos_key before the snapshot check
        version = getattr(self.mobility, "version", None)
        self._ensure_snapshot(t, version)
        xy = pos.get(node_id)
        if xy is None:
            xy = self.mobility.position(node_id, t)
            pos[node_id] = xy
        x, y = xy
        # A node never attached has no list: the bands decide every entry.
        candidates = self._lists.get(node_id, self._all)
        limit = self.range * self.range
        # Snapshots built in this very memo key hold the exact positions,
        # so the canonical expression on the entry decides.  Otherwise a
        # candidate's true position lies within ``drift`` of its snapshot
        # position: with snapshot distance d0 to the exact query point,
        # d0 <= range - drift - margin is certainly in range, d0 > range
        # + drift + margin certainly out, and only the annulus between
        # needs an exact position.  The margin keeps both bands strictly
        # clear of the boundary, where float evaluation of the canonical
        # expression could otherwise disagree by an ulp.
        if self._bucket_key == self._pos_key:
            sure_in2 = limit
            sure_out2 = limit
        else:
            drift = self._max_speed * abs(t - self._bucket_t)
            margin = self.range * 1e-6
            sure_in = self.range - drift - margin
            sure_in2 = sure_in * sure_in if sure_in > 0.0 else -1.0
            sure_out = self.range + drift + margin
            sure_out2 = sure_out * sure_out
        found = []
        for other_id, sx, sy in candidates:
            dx = sx - x
            dy = sy - y
            d2 = dx * dx + dy * dy
            if d2 > sure_out2:
                continue
            if d2 > sure_in2:
                oxy = pos.get(other_id)
                if oxy is None:
                    oxy = self.mobility.position(other_id, t)
                    pos[other_id] = oxy
                dx = oxy[0] - x
                dy = oxy[1] - y
                if dx * dx + dy * dy > limit:
                    continue
            found.append(other_id)
        return found

