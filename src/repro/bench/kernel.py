"""Timing kernels for the wireless channel's fast path.

Two benchmark families time the channel on the fast
:class:`~repro.net.spatial.GridIndex` against the reference
:class:`~repro.net.spatial.ScanIndex`:

* ``neighbors_of`` — the all-nodes neighborhood sweep (the access pattern
  of the oracle protocol, the invariant monitor's reachability audits and
  of broadcast-flood bookkeeping): every node's neighbor set is asked
  once per distinct time instant.  Per-op nanoseconds, where an op is one
  ``neighbors_of`` call.
* ``transmit`` — one unicast frame put on the air per op, the pattern
  every CBR data hop takes (sender coverage plus the destination's
  neighborhood for the virtual CTS, at one instant); the event queue is
  drained between ops, unmeasured.

Node counts sweep N ∈ {25, 50, 100, 200, 400} at the paper's node density
(a 50-node network lives on 1500 m × 300 m), so per-node degree stays
constant and timing differences isolate the query asymptotics.

All randomness is seeded through :class:`~repro.sim.simulator.Simulator`
streams; two bench runs time the *same* simulations.  Only the clock
readings differ — this module is host-side and allowlisted for wall-clock
use (lint rule RL002).
"""

import time

from repro.mobility import RandomWaypoint
from repro.net import GridIndex, Node, ScanIndex, WirelessChannel
from repro.net.packet import Frame, Packet
from repro.sim import Simulator

#: Bump when the report layout changes shape.
#: 2: added the event-kernel families (``sched_ops`` heap-vs-calendar and
#:    ``full_trial:<proto>`` reference-vs-fast) and their settings keys.
#: 3: dropped the ``trial:<proto>`` grid-vs-scan family (and the
#:    ``trial_sizes`` setting); ``full_trial`` is the one whole-trial
#:    kernel.
#: 4: dropped ``sched_ops`` and ``full_trial`` with the calendar queue
#:    (one event queue is left, and a whole trial would only repeat the
#:    grid-vs-scan kernels), and the ``sched_ops_events``,
#:    ``full_trial_sizes``, ``trial_duration`` and ``protocols`` settings.
BENCH_SCHEMA = 4

#: Node counts for the query benchmarks (full mode).
NODE_COUNTS = (25, 50, 100, 200, 400)
#: Query-benchmark node counts in ``--quick`` mode (CI smoke); keeps the
#: 200-node point, which is the acceptance anchor for the grid speedup.
QUICK_NODE_COUNTS = (25, 50, 100, 200)

#: Terrain area per node: the paper's 50-node scenario (1500 m × 300 m).
AREA_PER_NODE = 1500.0 * 300.0 / 50.0
#: Terrain aspect ratio (width : height), as in the paper's rectangles.
ASPECT = 5.0


def terrain(num_nodes):
    """(width, height) holding node density constant across N."""
    height = (num_nodes * AREA_PER_NODE / ASPECT) ** 0.5
    return ASPECT * height, height


def _build_network(num_nodes, index, seed, duration):
    """A channel + bare nodes over RandomWaypoint motion; no routing."""
    sim = Simulator(seed=seed)
    width, height = terrain(num_nodes)
    mobility = RandomWaypoint(
        num_nodes, width, height, pause_time=0.0, duration=duration,
        rng=sim.stream("mobility"),
    )
    channel = WirelessChannel(sim, mobility, index=index)
    nodes = [Node(sim, node_id, channel) for node_id in mobility.node_ids()]
    return sim, channel, nodes


def _time_neighbors(num_nodes, index, rounds, seed):
    """Per-op ns for the all-nodes neighborhood sweep."""
    duration = max(1.0, 0.25 * rounds + 1.0)
    _, channel, _ = _build_network(num_nodes, index, seed, duration)
    ops = rounds * num_nodes
    start = time.perf_counter_ns()
    for r in range(rounds):
        at = 0.25 * r
        for node_id in range(num_nodes):
            channel.neighbors_of(node_id, at_time=at)
    elapsed = time.perf_counter_ns() - start
    return elapsed / ops


def _time_transmit(num_nodes, index, reps, seed):
    """Per-op ns for one unicast ``transmit`` (drain unmeasured).

    Unicast is the channel's expensive pattern — sender coverage *and*
    the destination's neighborhood for the virtual CTS at one instant —
    and the pattern every CBR data hop takes; it is exactly the double
    scan the grid's snapshot dedupes.
    """
    duration = max(1.0, 0.02 * reps + 1.0)
    sim, channel, _ = _build_network(num_nodes, index, seed, duration)
    total = 0
    for rep in range(reps):
        sender = rep % num_nodes
        frame = Frame(Packet(), sender=sender,
                      link_dst=(sender + 1) % num_nodes)
        start = time.perf_counter_ns()
        channel.transmit(frame, 1e-3)
        total += time.perf_counter_ns() - start
        # Let the receptions complete and time advance so every op sees a
        # fresh event epoch and fresh positions, like real MAC traffic.
        sim.run(until=sim.now + 0.01)
    return total / reps


def _silent(line):
    """Default no-op progress sink."""


#: Repetitions per timing point.  Each one times both indexes back to
#: back on fresh worlds, alternating which goes first, so a host episode
#: long enough to matter lands on both legs of a pair instead of moving
#: one leg's numbers against the other's; the pair with the median
#: scan/grid ratio is reported.  Odd, so that pair is one repetition.
NS_KERNEL_REPS = 9


def _pair(fn):
    """Time ``fn(index)`` on both indexes -> (scan, grid, speedup)."""
    pairs = []
    for rep in range(NS_KERNEL_REPS):
        if rep % 2:
            grid = fn(GridIndex)
            scan = fn(ScanIndex)
        else:
            scan = fn(ScanIndex)
            grid = fn(GridIndex)
        pairs.append((scan / grid if grid > 0 else float("inf"), scan, grid))
    speedup, scan, grid = sorted(pairs)[len(pairs) // 2]
    return scan, grid, speedup


def run_kernel_bench(
    quick=False,
    sizes=None,
    rounds=None,
    transmit_reps=None,
    seed=1,
    progress=None,
):
    """Run every benchmark family; returns the ``BENCH_kernel.json`` dict.

    ``quick`` shrinks sweep sizes and repetition counts for CI smoke runs
    (the explicit keyword arguments still win when given).  ``progress``
    is an optional ``fn(str)`` for line-by-line status.
    """
    if sizes is None:
        sizes = QUICK_NODE_COUNTS if quick else NODE_COUNTS
    if rounds is None:
        rounds = 8 if quick else 20
    if transmit_reps is None:
        transmit_reps = 40 if quick else 150
    say = progress or _silent

    results = []
    for n in sizes:
        say("neighbors_of  n=%d" % n)
        scan_ns, grid_ns, speedup = _pair(
            lambda index: _time_neighbors(n, index, rounds, seed))
        results.append({
            "bench": "neighbors_of", "n": n,
            "scan_ns_per_op": scan_ns, "grid_ns_per_op": grid_ns,
            "speedup": speedup,
        })
    for n in sizes:
        say("transmit      n=%d" % n)
        scan_ns, grid_ns, speedup = _pair(
            lambda index: _time_transmit(n, index, transmit_reps, seed))
        results.append({
            "bench": "transmit", "n": n,
            "scan_ns_per_op": scan_ns, "grid_ns_per_op": grid_ns,
            "speedup": speedup,
        })

    return {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "seed": seed,
        "settings": {
            "sizes": list(sizes),
            "rounds": rounds,
            "transmit_reps": transmit_reps,
        },
        "created": time.time(),
        "results": results,
    }


def extract_speedups(report):
    """``{"bench/n": speedup}`` for a report (baseline file contents)."""
    return {
        "%s/%d" % (row["bench"], row["n"]): row["speedup"]
        for row in report["results"]
    }


def compare_to_baseline(report, baseline, threshold=0.25):
    """Regressions of ``report`` against a committed ``baseline`` dict.

    The baseline stores dimensionless grid-vs-scan speedups keyed
    ``"bench/n"``.  An entry regresses when its current speedup falls more
    than ``threshold`` (fractional) below the baseline value.  Entries the
    current run did not produce (``--quick`` subsets) are skipped and
    reported separately; extra current entries are never penalized.

    Returns ``(regressions, skipped)``: a list of violation dicts and a
    list of skipped baseline keys.
    """
    current = extract_speedups(report)
    regressions = []
    skipped = []
    for key, base in sorted(baseline.get("speedups", {}).items()):
        now = current.get(key)
        if now is None:
            skipped.append(key)
            continue
        floor = base / (1.0 + threshold)
        if now < floor:
            regressions.append({
                "key": key, "baseline": base, "current": now,
                "floor": floor, "threshold": threshold,
            })
    return regressions, skipped
