"""Parallel campaign execution with on-disk result caching.

The experiment harness above this package describes *what* to run
(tables, figures, sweeps); ``repro.exec`` decides *how*: trials fan out
over a process pool, completed rows persist in a content-addressed cache,
failures retry a bounded number of times, and progress streams to a
callback.  Results are bit-identical to a serial in-process loop.

* :mod:`repro.exec.engine` — :class:`CampaignEngine` and result types.
* :mod:`repro.exec.cache` — :class:`ResultCache` and the key scheme.
* :mod:`repro.exec.manifest` — the append-only campaign journal and the
  :func:`start_campaign` / :func:`resume_campaign` entry points that make
  campaigns crash-tolerant and resumable.
* :mod:`repro.exec.worker` — the per-trial unit of work.
* :mod:`repro.exec.deadline` — portable in-worker per-trial deadlines.
* :mod:`repro.exec.supervise` — retry/backoff/quarantine policy and stall
  budgets (jitter from the dedicated ``'exec'`` RNG stream).
* :mod:`repro.exec.progress` — progress snapshots and console rendering.
* :mod:`repro.exec.shard` — deterministic shard plans, per-shard
  campaign directories, and work-steal claim tokens (atomic renames).
* :mod:`repro.exec.aggregate` — merge partial shard result sets and
  stream running tables/CDFs while trials are still landing
  (``repro campaign merge`` / ``repro campaign watch``), rendered by the
  grid name in the journal header.
* :mod:`repro.exec.chaos` — the fault-injecting self-test behind
  ``repro chaos``.
"""

from repro.exec.aggregate import (
    AggregateError,
    CoverageError,
    MergedCampaign,
    merge_campaign,
    watch_campaign,
    write_merge_output,
)
from repro.exec.cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA,
    ResultCache,
    default_cache_dir,
    trial_key,
)
from repro.exec.deadline import TrialTimeout, call_with_deadline
from repro.exec.engine import (
    CampaignEngine,
    CampaignError,
    CampaignResult,
    TrialResult,
)
from repro.exec.manifest import (
    CampaignManifest,
    ManifestError,
    campaign_paths,
    resume_campaign,
    start_campaign,
)
from repro.exec.progress import Progress, console_progress, format_progress
from repro.exec.shard import (
    ShardPlan,
    ShardPlanError,
    campaign_fingerprint,
    claim_shard,
    init_claims,
    release_shard,
    start_shard,
)
from repro.exec.supervise import RetryPolicy, backoff_delay, stall_budget
from repro.exec.worker import run_trial_payload

__all__ = [
    "AggregateError",
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA",
    "CampaignEngine",
    "CampaignError",
    "CampaignManifest",
    "CampaignResult",
    "CoverageError",
    "ManifestError",
    "MergedCampaign",
    "Progress",
    "ResultCache",
    "RetryPolicy",
    "ShardPlan",
    "ShardPlanError",
    "TrialResult",
    "TrialTimeout",
    "backoff_delay",
    "call_with_deadline",
    "campaign_fingerprint",
    "campaign_paths",
    "claim_shard",
    "console_progress",
    "default_cache_dir",
    "format_progress",
    "init_claims",
    "merge_campaign",
    "release_shard",
    "resume_campaign",
    "run_trial_payload",
    "stall_budget",
    "start_campaign",
    "start_shard",
    "trial_key",
    "watch_campaign",
    "write_merge_output",
]
