"""The paper's experiment campaigns (Section 4).

Two main sets of simulations:

* 50 nodes on a 1500 m x 300 m terrain;
* 100 nodes on a 2200 m x 600 m terrain;

each with 10-flow and 30-flow CBR loads (512-byte packets, 4 pps/flow,
exponential flow lengths with 100 s mean), nodes moving at 1–20 m/s under
random waypoint, pause times swept from 0 to the run length, 900-second
runs, 10 trials per point.

Paper-scale runs take hours in pure Python, so the default here is a
*scaled* campaign (shorter runs, fewer pauses, fewer trials) that keeps the
load/mobility ratios; pass ``paper_scale=True`` to regenerate at full
scale.
"""

from repro.experiments.scenario import ScenarioConfig
from repro.faults import (
    FaultPlan,
    NodeCrash,
    NodeReboot,
    PacketFuzz,
    Partition,
)

#: Protocols compared throughout the evaluation.
COMPARED_PROTOCOLS = ("ldr", "aodv", "dsr", "olsr")

#: Protocols compared in the churn (fault-injection) campaign.  OLSR is
#: excluded: its proactive flooding makes short scaled runs dominated by
#: warm-up, which says nothing about fault recovery.
CHURN_PROTOCOLS = ("ldr", "aodv", "dsr")


def node_scenario(num_nodes, num_flows, pause_time, duration, seed=1,
                  protocol="ldr", **overrides):
    """One of the paper's two terrains, selected by node count."""
    if num_nodes <= 50:
        width, height = 1500.0, 300.0
    else:
        width, height = 2200.0, 600.0
    config = ScenarioConfig(
        protocol=protocol,
        num_nodes=num_nodes,
        width=width,
        height=height,
        num_flows=num_flows,
        duration=duration,
        pause_time=pause_time,
        seed=seed,
    )
    return config.replaced(**overrides) if overrides else config


def pause_sweep(duration, paper_scale=False):
    """The pause times swept on a figure's x-axis.

    The paper uses 0..900 s; scaled runs sweep the same fractions of the
    (shorter) run length.
    """
    if paper_scale:
        return [0, 30, 60, 120, 300, 600, 900]
    fractions = (0.0, 0.25, 1.0)
    return [round(f * duration) for f in fractions]


class Campaign:
    """Shared knobs for a table/figure regeneration.

    Besides the scenario scale (duration, trials, node counts), a
    campaign carries *execution* knobs — worker count, result cache,
    retry/timeout budgets — and builds the
    :class:`~repro.exec.engine.CampaignEngine` every generator in
    :mod:`~repro.experiments.tables` / :mod:`~repro.experiments.figures`
    runs its trials through.  Parallel and cached runs are bit-identical
    to serial ones, which is what makes ``paper_scale=True`` regeneration
    feasible on a multi-core box.
    """

    def __init__(self, paper_scale=False, duration=None, trials=None,
                 num_nodes_small=None, num_nodes_large=None,
                 jobs=1, use_cache=False, cache_dir=None,
                 retries=1, timeout=None, progress=None, trace_dir=None,
                 trace_gzip=False, journal=None, quarantine_after=None):
        self.paper_scale = paper_scale
        if paper_scale:
            self.duration = duration or 900.0
            self.trials = trials or 10
            self.num_nodes_small = num_nodes_small or 50
            self.num_nodes_large = num_nodes_large or 100
        else:
            self.duration = duration or 60.0
            self.trials = trials or 2
            self.num_nodes_small = num_nodes_small or 50
            self.num_nodes_large = num_nodes_large or 100
        self.jobs = jobs
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.retries = retries
        self.timeout = timeout
        self.progress = progress
        # Per-trial JSONL trace artifacts (repro.obs), or None for no
        # tracing; see CampaignEngine.trace_dir / trace_gzip.
        self.trace_dir = trace_dir
        self.trace_gzip = trace_gzip
        # Journaled (crash-tolerant, resumable) execution: the campaign
        # directory holding manifest.jsonl + cache/ + traces/, or None
        # for a classic unjournaled run.  See repro.exec.manifest.
        self.journal = journal
        # Supervision knob, forwarded to the engine's RetryPolicy.
        self.quarantine_after = quarantine_after

    def pauses(self):
        return pause_sweep(self.duration, self.paper_scale)

    def seeds(self):
        return range(1, self.trials + 1)

    def engine(self, progress=None):
        """Build the campaign's :class:`CampaignEngine` (unjournaled)."""
        from repro.exec import CampaignEngine, ResultCache

        cache = ResultCache(self.cache_dir) if self.use_cache else None
        return CampaignEngine(
            jobs=self.jobs, cache=cache, retries=self.retries,
            timeout=self.timeout, progress=progress or self.progress,
            trace_dir=self.trace_dir, trace_gzip=self.trace_gzip,
            quarantine_after=self.quarantine_after,
        )


# ---------------------------------------------------------------------------
# Churn campaign (fault injection)
# ---------------------------------------------------------------------------

def _crash_victims(num_nodes):
    """~10% of the nodes, spread evenly across the id space.

    Deterministic by construction — victim choice is part of the plan,
    never drawn at run time — so the same campaign always injects the
    same faults and cache keys stay stable.
    """
    count = max(1, num_nodes // 10)
    return [(j + 1) * num_nodes // (count + 1) for j in range(count)]


def churn_plans(duration, num_nodes):
    """The named fault plans of the churn campaign, scaled to ``duration``.

    Returns ``[(name, FaultPlan-or-None), ...]`` in presentation order:

    ``baseline``   no faults (monitor still on — the control row)
    ``crash``      ~10% of nodes fail permanently at 30% of the run
    ``reboot``     the same nodes fail, then reboot with zeroed counters
                   at 55% — the paper's "loss of state" recovery story
    ``partition``  the terrain splits into halves for 20% of the run,
                   then heals; re-convergence is audited
    ``fuzz``       a 40%-of-the-run window of corrupted / duplicated /
                   delayed receptions from the ``faults`` RNG stream
    """
    victims = _crash_victims(num_nodes)
    t_crash = round(0.30 * duration, 3)
    t_reboot = round(0.55 * duration, 3)
    half = num_nodes // 2
    groups = [list(range(half)), list(range(half, num_nodes))]
    bound = max(round(0.25 * duration, 3), 1.0)
    return [
        ("baseline", None),
        ("crash", FaultPlan(
            events=[NodeCrash(node, t_crash) for node in victims],
        )),
        ("reboot", FaultPlan(
            events=(
                [NodeCrash(node, t_crash) for node in victims]
                + [NodeReboot(node, t_reboot) for node in victims]
            ),
        )),
        ("partition", FaultPlan(
            events=[Partition(groups, round(0.40 * duration, 3),
                              round(0.60 * duration, 3))],
            reconvergence_bound=bound,
        )),
        ("fuzz", FaultPlan(
            events=[PacketFuzz(round(0.30 * duration, 3),
                               round(0.70 * duration, 3),
                               corrupt=0.05, duplicate=0.02, delay=0.05)],
        )),
    ]


def churn_grid(campaign, protocols=CHURN_PROTOCOLS, num_flows=10):
    """Every (fault plan x protocol x seed) trial of the churn campaign.

    Returns ``(labels, configs)`` where ``labels[i]`` is the
    ``(fault_name, protocol)`` pair describing ``configs[i]``.  Every
    config has the invariant monitor enabled, so violations land in the
    result rows (and in the cache — a changed plan is a changed key).
    """
    labels = []
    configs = []
    for fault_name, plan in churn_plans(campaign.duration,
                                        campaign.num_nodes_small):
        for protocol in protocols:
            for seed in campaign.seeds():
                labels.append((fault_name, protocol))
                configs.append(node_scenario(
                    campaign.num_nodes_small, num_flows, 0.0,
                    campaign.duration, seed=seed, protocol=protocol,
                    fault_plan=plan, invariant_check=True,
                ))
    return labels, configs


def run_churn(campaign, protocols=CHURN_PROTOCOLS, num_flows=10):
    """Execute the churn grid; returns ``(labels, result, manifest)``.

    With ``campaign.journal`` unset this is a classic in-memory run
    (``manifest`` is None).  With a journal directory the campaign is
    crash-tolerant: a fresh directory is started (grid labels stored in
    the manifest meta so a later ``repro campaign resume`` can re-render
    the table), an existing one is *resumed* — finished trials come back
    from the campaign cache and only outstanding work executes, with the
    merged result byte-identical to an uninterrupted run.
    """
    labels, configs = churn_grid(campaign, protocols, num_flows)
    if campaign.journal is None:
        return labels, campaign.engine().run(configs), None
    import pathlib

    from repro.exec.manifest import (
        campaign_paths,
        resume_campaign,
        start_campaign,
    )

    root = pathlib.Path(campaign.journal)
    manifest_path, _, _ = campaign_paths(root)
    if manifest_path.exists():
        manifest, result = resume_campaign(
            root, progress=campaign.progress, jobs=campaign.jobs)
        meta_labels = manifest.header.get("meta", {}).get("labels")
        if meta_labels is not None:
            labels = [tuple(label) for label in meta_labels]
        return labels, result, manifest
    manifest, engine = start_campaign(
        root, configs, name="churn",
        meta={"labels": [list(label) for label in labels],
              "protocols": list(protocols), "num_flows": num_flows},
        jobs=campaign.jobs, retries=campaign.retries,
        timeout=campaign.timeout,
        quarantine_after=campaign.quarantine_after,
        trace=campaign.trace_dir is not None,
        trace_gzip=campaign.trace_gzip,
        progress=campaign.progress)
    return labels, engine.run(configs), manifest


def _shard_engine_opts(campaign):
    """The engine knobs a shard inherits from its campaign."""
    return {
        "jobs": campaign.jobs, "retries": campaign.retries,
        "timeout": campaign.timeout,
        "quarantine_after": campaign.quarantine_after,
        "trace": campaign.trace_dir is not None,
        "trace_gzip": campaign.trace_gzip,
    }


def _run_one_shard(campaign, root, plan, index, labels, configs,
                   protocols, num_flows):
    """Start (or resume) shard ``index`` and run its subset to the end."""
    from repro.exec.manifest import campaign_paths, resume_campaign
    from repro.exec.shard import shard_dir, start_shard

    sdir = shard_dir(root, index)
    manifest_path, _, _ = campaign_paths(sdir)
    if manifest_path.exists():
        return resume_campaign(sdir, progress=campaign.progress,
                               jobs=campaign.jobs)
    manifest, engine, subset = start_shard(
        root, configs, plan, index, name="churn", labels=labels,
        meta={"protocols": list(protocols), "num_flows": num_flows},
        progress=campaign.progress, **_shard_engine_opts(campaign))
    return manifest, engine.run([config for _, config in subset])


def run_churn_shard(campaign, shards, shard_index=None, claim=False,
                    protocols=CHURN_PROTOCOLS, num_flows=10):
    """Run shard(s) of the churn grid; returns ``(labels, plan, sessions)``.

    The grid is partitioned deterministically by content-hash trial key
    (:class:`~repro.exec.shard.ShardPlan`), so any number of hosts can
    each run their shard with no coordination and the merged campaign
    (``repro campaign merge``) is byte-identical to an unsharded run.

    With ``shard_index`` set, exactly that shard runs (a second
    invocation *resumes* it from its journal).  With ``claim=True`` the
    call work-steals instead: it claims unclaimed shards one at a time
    from the shared claim board (atomic renames, see
    :mod:`repro.exec.shard`) until none remain.  ``sessions`` is
    ``[(shard_index, result, manifest), ...]`` for every shard this call
    executed.
    """
    import pathlib

    from repro.exec.shard import (
        ShardPlan,
        claim_shard,
        init_claims,
        release_shard,
    )

    if campaign.journal is None:
        raise ValueError("sharded churn requires a journal directory "
                         "(--journal DIR)")
    labels, configs = churn_grid(campaign, protocols, num_flows)
    plan = ShardPlan(shards)
    root = pathlib.Path(campaign.journal)
    sessions = []
    if not claim:
        if shard_index is None:
            raise ValueError("pass shard_index or claim=True")
        manifest, result = _run_one_shard(
            campaign, root, plan, shard_index, labels, configs,
            protocols, num_flows)
        return labels, plan, [(shard_index, result, manifest)]
    init_claims(root, plan)
    while True:
        index = claim_shard(root, plan)
        if index is None:
            break
        try:
            manifest, result = _run_one_shard(
                campaign, root, plan, index, labels, configs,
                protocols, num_flows)
        except BaseException:
            # Hand the shard back: the journal keeps whatever landed,
            # and the next claimant resumes from it.
            release_shard(root, index, done=False)
            raise
        sessions.append((index, result, manifest))
        if result.interrupted:
            release_shard(root, index, done=False)
            break
        release_shard(root, index, done=True)
    return labels, plan, sessions


def aggregate_churn(labels, result):
    """Aggregate a churn result per (fault plan, protocol) bucket.

    Delivery ratio and control overhead are averaged over trials;
    violation counts are summed — a single loop anywhere in the campaign
    should be visible, not averaged away.

    Tolerates partial coverage: trials without a row (quarantined poison
    trials, or work still outstanding after an interruption) reduce the
    bucket's ``trials``/``coverage`` instead of crashing aggregation, and
    metric fields are None for buckets with no completed trial at all.
    Coverage degradation is explicit in every row, never silent.
    """
    order = []
    buckets = {}
    for label, trial in zip(labels, result.trials):
        label = tuple(label)
        if label not in buckets:
            buckets[label] = {"rows": [], "planned": 0, "quarantined": 0}
            order.append(label)
        bucket = buckets[label]
        bucket["planned"] += 1
        if trial.ok:
            bucket["rows"].append(trial.row)
        elif trial.quarantined:
            bucket["quarantined"] += 1
    table = []
    for fault_name, protocol in order:
        bucket = buckets[(fault_name, protocol)]
        rows = bucket["rows"]
        n = len(rows)
        planned = bucket["planned"]

        def mean(field, rows=rows, n=n):
            return sum(r[field] for r in rows) / n if n else None

        table.append({
            "fault": fault_name,
            "protocol": protocol,
            "trials": n,
            "planned": planned,
            "quarantined": bucket["quarantined"],
            "coverage": (n / planned) if planned else 1.0,
            "delivery_ratio": mean("delivery_ratio"),
            "network_load": mean("network_load"),
            "control_transmissions": mean("control_transmissions"),
            "loop_violations": sum(r["loop_violations"] for r in rows),
            "invariant_violations":
                sum(r["invariant_violations"] for r in rows),
        })
    return table


def churn_table(campaign, protocols=CHURN_PROTOCOLS, num_flows=10):
    """Run the churn grid and aggregate per (fault plan, protocol).

    Raises :class:`~repro.exec.engine.CampaignError` when trials failed
    outright (exhausted retries without quarantine); quarantined trials
    only degrade the table's coverage columns.
    """
    labels, result, _ = run_churn(campaign, protocols, num_flows)
    failures = result.failures()
    if failures:
        from repro.exec.engine import CampaignError

        raise CampaignError(failures)
    return aggregate_churn(labels, result)


def format_churn(table):
    """Render the churn table the way the paper renders Table 1.

    Fully covered tables keep the classic compact layout; as soon as any
    bucket lost trials (quarantine, interruption) a ``cov`` column
    appears showing ``completed/planned`` per bucket, and bucket metrics
    without any completed trial render as ``--``.
    """
    degraded = any(row.get("coverage", 1.0) < 1.0 for row in table)
    header = ("{:<11}{:<7}{:>10}{:>12}{:>12}{:>7}{:>11}".format(
        "fault", "proto", "delivery", "ctl/data", "ctl-tx", "loops",
        "invariant"))
    if degraded:
        header += "{:>8}".format("cov")
    lines = [header, "-" * len(header)]
    previous_fault = None
    for row in table:
        if previous_fault is not None and row["fault"] != previous_fault:
            lines.append("")
        previous_fault = row["fault"]
        if row["trials"]:
            line = ("{:<11}{:<7}{:>10.3f}{:>12.2f}{:>12.1f}{:>7d}{:>11d}"
                    .format(row["fault"], row["protocol"],
                            row["delivery_ratio"], row["network_load"],
                            row["control_transmissions"],
                            row["loop_violations"],
                            row["invariant_violations"]))
        else:
            line = ("{:<11}{:<7}{:>10}{:>12}{:>12}{:>7}{:>11}"
                    .format(row["fault"], row["protocol"],
                            "--", "--", "--", "--", "--"))
        if degraded:
            line += "{:>8}".format(
                "%d/%d" % (row["trials"], row.get("planned", row["trials"])))
        lines.append(line)
    quarantined = sum(row.get("quarantined", 0) for row in table)
    if quarantined:
        lines.append("")
        lines.append("quarantined: %d trial(s) set aside after repeated "
                     "failure (see the campaign journal)" % quarantined)
    return "\n".join(lines)
