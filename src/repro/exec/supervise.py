"""Worker supervision policy: retry backoff, quarantine, stall budgets.

Retries back off exponentially with jitter so a transiently overloaded
host (the usual cause of sporadic worker failures) is not hammered by an
immediate re-submission storm.  The jitter is drawn from the dedicated
``'exec'`` RNG stream (see :mod:`repro.sim.rng`), seeded per trial from
its content key — *never* from the simulation's streams and never from
ambient randomness — so a retry schedule is reproducible from the journal
alone and retrying cannot perturb a single result byte.

Quarantine is the poison-trial policy: a trial that keeps failing after
``quarantine_after`` attempts is set aside as *quarantined* — reported
explicitly, coverage-reducing, but no longer campaign-fatal — instead of
either failing the whole campaign or being retried forever.

The stall budget is the heartbeat for pooled attempts.  The engine keeps
at most ``jobs`` attempts in flight and starts an attempt's clock when it
hands the attempt to a worker, so time spent waiting for a free slot
never counts.  An attempt older than the budget means the in-worker
deadline that should have fired did not (worker wedged in C code, or
silently dead without breaking the pool), and the engine force-recycles
the pool.
"""

import zlib

from repro.sim.rng import RngStreams

#: Stream name the backoff jitter draws from; owned by the ``exec`` layer
#: (see ``STREAM_LAYERS`` in :mod:`repro.lint.config`).
EXEC_STREAM = "exec"

#: Jitter multiplier range: delay = base * 2^(attempt-2) * U[0.75, 1.25).
JITTER_LOW = 0.75
JITTER_SPAN = 0.5

#: Ceiling on any single retry delay, in seconds.
BACKOFF_CAP = 30.0

#: Extra slack granted on top of twice the per-trial deadline before an
#: in-flight pool future is declared stalled.
STALL_SLACK = 30.0


def backoff_delay(key, attempt, base):
    """Seconds to wait before retry ``attempt`` (attempt 2 = first retry).

    Deterministic per ``(key, attempt)``: the jitter sequence comes from a
    fresh ``'exec'`` stream seeded from the trial's content key, so the
    schedule does not depend on scheduling interleavings and replays
    identically from a resumed journal.  ``base <= 0`` disables backoff.
    """
    if base <= 0 or attempt < 2:
        return 0.0
    seed = zlib.crc32((key or "").encode("utf-8"))
    rng = RngStreams(seed).stream("exec")
    delay = 0.0
    for retry in range(2, attempt + 1):
        jitter = JITTER_LOW + JITTER_SPAN * rng.random()
        delay = min(BACKOFF_CAP, base * (2.0 ** (retry - 2)) * jitter)
    return delay


def stall_budget(timeout):
    """Age at which an in-flight pooled attempt counts as stalled.

    The budget derives from the per-trial deadline (twice the deadline
    plus slack: the in-worker deadline must have fired well before that).
    Without a deadline there is no way to tell slow from wedged, so stall
    detection is off (returns None).
    """
    if timeout:
        return 2.0 * float(timeout) + STALL_SLACK
    return None


class RetryPolicy:
    """Attempt accounting for one engine run.

    ``retries`` is the classic budget (extra attempts after the first
    failure); ``quarantine_after``, when set, replaces it as the attempt
    ceiling and switches exhaustion from *failed* (campaign-fatal) to
    *quarantined* (coverage-reducing).
    """

    def __init__(self, retries=1, quarantine_after=None, backoff_base=0.05):
        self.retries = max(0, int(retries))
        self.quarantine_after = (
            None if quarantine_after is None else max(1, int(quarantine_after))
        )
        self.backoff_base = float(backoff_base)

    @property
    def max_attempts(self):
        if self.quarantine_after is not None:
            return self.quarantine_after
        return self.retries + 1

    def exhausted(self, attempts):
        return attempts >= self.max_attempts

    @property
    def quarantines(self):
        """True when exhaustion quarantines instead of failing."""
        return self.quarantine_after is not None

    def delay_before(self, key, attempt):
        """Backoff before executing ``attempt`` of the trial ``key``."""
        return backoff_delay(key, attempt, self.backoff_base)
