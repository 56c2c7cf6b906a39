"""Timing kernels for the simulator fast paths.

Four benchmark families.  Two time the wireless channel on the fast
:class:`~repro.net.spatial.GridIndex` against the reference
:class:`~repro.net.spatial.ScanIndex`:

* ``neighbors_of`` — the all-nodes neighborhood sweep (the access pattern
  of the oracle protocol, the invariant monitor's reachability audits and
  of broadcast-flood bookkeeping): every node's neighbor set is asked
  once per distinct time instant.  Per-op nanoseconds, where an op is one
  ``neighbors_of`` call.
* ``transmit`` — one broadcast frame put on the air per op, the MAC's
  actual call pattern (coverage scan + CSMA NAV + gray-zone distances at
  one instant); the event queue is drained between ops, unmeasured.

One times the event kernel, the fast
:class:`~repro.sim.events.CalendarScheduler` against the reference
:class:`~repro.sim.events.EventScheduler`:

* ``sched_ops`` — a synthetic schedule / cancel / timer-restart / drain
  mix on a bare :class:`Simulator`, heap vs calendar; per-op ns where an
  op is one loop iteration of the mix.

And one times whole trials:

* ``full_trial:<proto>`` — one full trial (routing + MAC + traffic) on
  the *reference* kernel (``Scenario(config, scheduler=EventScheduler,
  index=ScanIndex)``) vs the *fast* default one: the end-to-end speedup
  of everything the fast path stack buys (≥3x at N = 400).  The per-seam
  gaps are the kernels above; a whole-trial ratio per seam would only
  repeat them.

Node counts sweep N ∈ {25, 50, 100, 200, 400} at the paper's node density
(a 50-node network lives on 1500 m × 300 m), so per-node degree stays
constant and timing differences isolate the query asymptotics.

All randomness is seeded through :class:`~repro.sim.simulator.Simulator`
streams; two bench runs time the *same* simulations.  Only the clock
readings differ — this module is host-side and allowlisted for wall-clock
use (lint rule RL002).
"""

import time

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.mobility import RandomWaypoint
from repro.net import GridIndex, Node, ScanIndex, WirelessChannel
from repro.net.packet import Frame, Packet
from repro.sim import CalendarScheduler, EventScheduler, Simulator, Timer

#: Bump when the report layout changes shape.
#: 2: added the event-kernel families (``sched_ops`` heap-vs-calendar and
#:    ``full_trial:<proto>`` reference-vs-fast) and their settings keys.
#: 3: dropped the ``trial:<proto>`` grid-vs-scan family (and the
#:    ``trial_sizes`` setting); ``full_trial`` is the one whole-trial
#:    kernel.
BENCH_SCHEMA = 3

#: Node counts for the query benchmarks (full mode).
NODE_COUNTS = (25, 50, 100, 200, 400)
#: Query-benchmark node counts in ``--quick`` mode (CI smoke); keeps the
#: 200-node point, which is the acceptance anchor for the grid speedup.
QUICK_NODE_COUNTS = (25, 50, 100, 200)

TRIAL_PROTOCOLS = ("ldr", "aodv")

#: Terrain area per node: the paper's 50-node scenario (1500 m × 300 m).
AREA_PER_NODE = 1500.0 * 300.0 / 50.0
#: Terrain aspect ratio (width : height), as in the paper's rectangles.
ASPECT = 5.0

#: Scheduler-ops benchmark: events per run.  Same in ``--quick`` mode —
#: the kernel is sub-second, and keeping the count (= the baseline key)
#: identical lets the CI smoke gate it against the committed baseline.
SCHED_OPS_EVENTS = 100_000

#: Full-trial reference-vs-fast node counts.  400 is the acceptance
#: anchor for the event-kernel speedup; 50 keeps a point the ``--quick``
#: CI smoke also measures, so the committed baseline gates it.
FULL_TRIAL_NODE_COUNTS = (50, 100, 400)
QUICK_FULL_TRIAL_NODE_COUNTS = (50,)


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


def _noop():
    """Do-nothing event callback for the scheduler-ops kernel."""


def _time_scheduler_ops(scheduler, events, seed):
    """Per-op ns for a synthetic schedule/cancel/restart/drain mix.

    The mix mirrors what a trial actually does to the queue: mostly
    schedules with short skewed delays, a third cancelled before firing,
    a steady diet of timer restarts (MAC backoff / route lifetimes), and
    interleaved partial drains.  The op sequence is generated by a fixed
    LCG so both backends time *identical* programs.
    """
    sim = Simulator(seed=0, scheduler=scheduler)
    timers = [Timer(sim, _noop) for _ in range(32)]
    x = (seed * 2654435761 + 1) & 0x7FFFFFFF
    start = time.perf_counter_ns()
    for i in range(events):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        event = sim.schedule((x % 10_000) * 1e-4, _noop)
        if i % 3 == 0:
            event.cancel()
        if i % 4 == 0:
            timer = timers[x % 32]
            delay = (x % 1_000) * 1e-3
            if timer.armed:
                timer.restart(delay)
            else:
                timer.start(delay)
        if i % 64 == 63:
            sim.run(max_events=32)
    sim.run()
    return (time.perf_counter_ns() - start) / events


def _time_full_trial(protocol, num_nodes, fast, duration, seed):
    """Wall seconds for one trial on the reference or the fast kernel."""
    width, height = terrain(num_nodes)
    config = ScenarioConfig(
        protocol=protocol, num_nodes=num_nodes, width=width, height=height,
        num_flows=max(2, min(10, num_nodes // 4)), duration=duration,
        pause_time=0.0, warmup=1.0, seed=seed,
    )
    start = time.perf_counter()
    if fast:
        Scenario(config).run()
    else:
        Scenario(config, scheduler=EventScheduler, index=ScanIndex).run()
    return time.perf_counter() - start


def _silent(line):
    """Default no-op progress sink."""


#: Repetitions per timing point (the *minimum* is reported).  Single-shot
#: readings on a shared box swing by 2-3x; the min of a few fresh runs is
#: the classic stable estimator for "how fast can this go", which is what
#: a dimensionless speedup ratio needs on both sides.
NS_KERNEL_REPS = 3
TRIAL_KERNEL_REPS = 2


def _best_of(reps, fn):
    """Minimum of ``reps`` fresh runs of ``fn`` (each rebuilds its world)."""
    return min(fn() for _ in range(reps))


def _pair(fn, *args):
    """Run a timing kernel on both indexes -> (scan, grid, speedup)."""
    scan = fn(ScanIndex, *args)
    grid = fn(GridIndex, *args)
    speedup = scan / grid if grid > 0 else float("inf")
    return scan, grid, speedup


def run_kernel_bench(
    quick=False,
    sizes=None,
    rounds=None,
    transmit_reps=None,
    trial_duration=None,
    protocols=TRIAL_PROTOCOLS,
    seed=1,
    include_trials=True,
    sched_ops_events=None,
    full_trial_sizes=None,
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
    if trial_duration is None:
        trial_duration = 5.0 if quick else 10.0
    if sched_ops_events is None:
        sched_ops_events = SCHED_OPS_EVENTS
    if full_trial_sizes is None:
        full_trial_sizes = QUICK_FULL_TRIAL_NODE_COUNTS if quick \
            else FULL_TRIAL_NODE_COUNTS
    say = progress or _silent

    results = []
    for n in sizes:
        say("neighbors_of  n=%d" % n)
        scan_ns, grid_ns, speedup = _pair(
            lambda index: _best_of(NS_KERNEL_REPS,
                                   lambda: _time_neighbors(
                                       n, index, rounds, seed)))
        results.append({
            "bench": "neighbors_of", "n": n,
            "scan_ns_per_op": scan_ns, "grid_ns_per_op": grid_ns,
            "speedup": speedup,
        })
    for n in sizes:
        say("transmit      n=%d" % n)
        scan_ns, grid_ns, speedup = _pair(
            lambda index: _best_of(NS_KERNEL_REPS,
                                   lambda: _time_transmit(
                                       n, index, transmit_reps, seed)))
        results.append({
            "bench": "transmit", "n": n,
            "scan_ns_per_op": scan_ns, "grid_ns_per_op": grid_ns,
            "speedup": speedup,
        })
    if sched_ops_events:
        say("sched_ops     events=%d" % sched_ops_events)
        heap_ns = _best_of(NS_KERNEL_REPS, lambda: _time_scheduler_ops(
            EventScheduler, sched_ops_events, seed))
        cal_ns = _best_of(NS_KERNEL_REPS, lambda: _time_scheduler_ops(
            CalendarScheduler, sched_ops_events, seed))
        results.append({
            "bench": "sched_ops", "n": sched_ops_events,
            "heap_ns_per_op": heap_ns, "calendar_ns_per_op": cal_ns,
            "speedup": heap_ns / cal_ns if cal_ns > 0 else float("inf"),
        })
    if include_trials:
        for protocol in protocols:
            for n in full_trial_sizes:
                say("full_trial:%-6s  n=%d" % (protocol, n))
                ref_s = _best_of(TRIAL_KERNEL_REPS, lambda: _time_full_trial(
                    protocol, n, False, trial_duration, seed))
                fast_s = _best_of(TRIAL_KERNEL_REPS, lambda: _time_full_trial(
                    protocol, n, True, trial_duration, seed))
                results.append({
                    "bench": "full_trial:%s" % protocol, "n": n,
                    "reference_s": ref_s, "fast_s": fast_s,
                    "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
                })

    return {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "seed": seed,
        "settings": {
            "sizes": list(sizes),
            "full_trial_sizes":
                list(full_trial_sizes) if include_trials else [],
            "rounds": rounds,
            "transmit_reps": transmit_reps,
            "sched_ops_events": sched_ops_events,
            "trial_duration": trial_duration,
            "protocols": list(protocols) if include_trials else [],
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
