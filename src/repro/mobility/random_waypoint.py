"""Random waypoint mobility (the paper's model).

Each node repeats: pick a uniform destination in the terrain, move there in
a straight line at a uniform random speed in ``[min_speed, max_speed]``,
pause for ``pause_time`` seconds.  The paper sweeps ``pause_time`` from 0
(constant motion) to the run length (static network) — that sweep is the
x-axis of Figures 2–5.

The trajectory for the whole run is *pre-generated* per node from the
mobility RNG stream, making ``position(node, t)`` a pure function.  That
keeps mobility identical across protocols for a given seed, which the
paper's methodology requires.  To make the seeding explicit, ``rng`` is
mandatory: pass either a seeded ``random.Random``-like object or an
:class:`~repro.sim.rng.RngStreams` (its ``"mobility"`` stream is drawn) —
there is deliberately no default, so two scenarios can never share an
identical waypoint pattern by accident.
"""

import bisect

from repro.mobility.base import MobilityModel


class _Leg:
    """One segment of a trajectory: motion then pause."""

    __slots__ = ("start_time", "end_time", "x0", "y0", "x1", "y1", "move_duration")

    def __init__(self, start_time, x0, y0, x1, y1, speed, pause):
        self.start_time = start_time
        self.x0, self.y0 = x0, y0
        self.x1, self.y1 = x1, y1
        dx, dy = x1 - x0, y1 - y0
        distance = (dx * dx + dy * dy) ** 0.5
        self.move_duration = distance / speed if speed > 0 else 0.0
        self.end_time = start_time + self.move_duration + pause

    def position(self, t):
        if self.move_duration <= 0:
            return self.x1, self.y1
        frac = (t - self.start_time) / self.move_duration
        if frac >= 1.0:
            return self.x1, self.y1
        return (
            self.x0 + (self.x1 - self.x0) * frac,
            self.y0 + (self.y1 - self.y0) * frac,
        )


class RandomWaypoint(MobilityModel):
    """Random waypoint over a rectangular terrain."""

    def __init__(
        self,
        num_nodes,
        width,
        height,
        min_speed=1.0,
        max_speed=20.0,
        pause_time=0.0,
        duration=900.0,
        rng=None,
    ):
        if rng is None:
            raise TypeError(
                "RandomWaypoint requires an explicit rng: pass a seeded "
                "random.Random or an RngStreams (the 'mobility' stream is "
                "used); an implicit default would let two scenarios share "
                "identical mobility by accident"
            )
        if hasattr(rng, "stream"):  # RngStreams: draw the named stream
            rng = rng.stream("mobility")
        # Trajectories are continuous piecewise-linear legs at speeds drawn
        # from [min_speed, max_speed]: max_speed is a true Lipschitz bound,
        # which lets the channel's spatial index reuse position snapshots
        # and per-node candidate lists across events (see
        # repro.net.spatial).
        self.max_speed = float(max_speed)
        self.num_nodes = num_nodes
        self.width = float(width)
        self.height = float(height)
        self.duration = float(duration)
        self._legs = {}
        self._leg_starts = {}
        # Per-node cache of the leg index the last query landed on: legs
        # last tens of simulated seconds while queries advance with the
        # event clock, so nearly every lookup re-hits the same leg and
        # skips the bisect.  Pure memoization — the leg found is the same
        # one the bisect would find.
        self._leg_cache = {}
        for node_id in range(num_nodes):
            legs = self._generate(node_id, rng, min_speed, max_speed, pause_time)
            self._legs[node_id] = legs
            self._leg_starts[node_id] = [leg.start_time for leg in legs]
            self._leg_cache[node_id] = 0

    def _generate(self, node_id, rng, min_speed, max_speed, pause_time):
        x = rng.uniform(0, self.width)
        y = rng.uniform(0, self.height)
        legs = []
        t = 0.0
        # Initial pause models nodes starting at rest, as GloMoSim does when
        # pause_time > 0; with pause 0 the node starts moving immediately.
        if pause_time > 0:
            legs.append(_Leg(t, x, y, x, y, 0.0, pause_time))
            t = legs[-1].end_time
        while t < self.duration:
            nx = rng.uniform(0, self.width)
            ny = rng.uniform(0, self.height)
            speed = rng.uniform(min_speed, max_speed)
            leg = _Leg(t, x, y, nx, ny, speed, pause_time)
            legs.append(leg)
            x, y = nx, ny
            t = leg.end_time
        return legs

    def _leg_at(self, node_id, t):
        """The leg covering time ``t`` — the one ``bisect_right(starts, t)
        - 1`` selects — found through the per-node cache when possible."""
        starts = self._leg_starts[node_id]
        index = self._leg_cache[node_id]
        # Cache hit iff the bisect would land on the same index: t is at
        # or past this leg's start and strictly before the next one's.
        if not (
            starts[index] <= t
            and (index + 1 == len(starts) or t < starts[index + 1])
        ):
            index = bisect.bisect_right(starts, t) - 1
            if index < 0:
                index = 0
            self._leg_cache[node_id] = index
        return self._legs[node_id][index]

    def position(self, node_id, t):
        return self._leg_at(node_id, t).position(t)

    def positions_at(self, node_ids, t):
        # Bulk snapshot for the spatial index: same leg selection + same
        # interpolation as position(), so values are bit-identical to
        # per-node lookups.
        out = {}
        for node_id in node_ids:
            out[node_id] = self._leg_at(node_id, t).position(t)
        return out

    def node_ids(self):
        return list(range(self.num_nodes))
