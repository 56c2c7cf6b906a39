"""The campaign execution engine.

Fans independent ``(ScenarioConfig, seed)`` trials out over a process
pool, serves repeats from the on-disk :class:`ResultCache`, retries
failed workers under a supervised backoff/quarantine policy, and reports
live progress.

One dispatch loop runs every trial: it keeps at most ``jobs`` attempts
in flight and starts an attempt — its attempt count, its ``running``
journal record, its stall clock — only when a slot is free.  With
``jobs == 1`` the attempt runs inline and yields an already-finished
future; otherwise it runs on the pool.  A failed attempt waits out its
backoff outside the slots and rejoins the ready queue when it is due.

Because every trial is a pure function of its config (all randomness
flows from the seeded simulator), results are **bit-identical** however
they are executed — serially, on N workers, replayed from cache, or
resumed from a journaled checkpoint — and the engine preserves submission
order, so aggregation downstream sees exactly the sequence a serial loop
would have produced.

Every trial is keyed (:func:`~repro.exec.cache.trial_key`) and dispatched
by value, in-process or to a worker; a config without a key is refused.

Robustness model (the campaign-fabric contract):

* **Journal**: with a :class:`~repro.exec.manifest.CampaignManifest`
  attached, every pending/running/done/failed/quarantined transition is
  committed to the append-only journal *before* the engine moves on, so a
  crash at any instant loses at most the in-flight attempts (which are
  refunded on resume).
* **Supervision**: per-trial deadlines are enforced inside the worker
  (:mod:`repro.exec.deadline`); an attempt that outlives its stall
  budget, counted from when it was handed to a worker, means the worker
  is wedged and the pool is force-recycled; a broken pool is respawned
  (bounded) before degrading to in-process execution.
* **Retry policy**: failures back off exponentially with jitter from the
  dedicated ``'exec'`` RNG stream (:mod:`repro.exec.supervise`), and a
  poison trial is quarantined after its attempt ceiling instead of
  failing the campaign.
* **Interruption**: for journaled runs, SIGINT/SIGTERM checkpoint and
  exit — the journal is flushed, in-flight attempts are refunded, and the
  result reports the resume command instead of losing completed work.
"""

import os
import pathlib
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.exec import worker as _worker
from repro.exec.cache import trial_key
from repro.exec.manifest import DONE, FAILED, QUARANTINED, RUNNING
from repro.exec.progress import Progress
from repro.exec.supervise import RetryPolicy, stall_budget
from repro.obs.reader import trace_ok

#: Seconds between pool polls; bounds interrupt/stall reaction latency.
_POLL = 0.2

#: Times a broken pool is rebuilt before the engine degrades to
#: in-process execution.
POOL_RESPAWNS = 1


def _last_line(text):
    lines = (text or "").strip().splitlines()
    return lines[-1] if lines else "(not executed)"


class CampaignError(RuntimeError):
    """Raised when full results are requested but some trials lack rows."""

    def __init__(self, failures):
        self.failures = list(failures)
        preview = "; ".join(
            "trial %d (%s): %s"
            % (t.index, t.config.protocol,
               ("quarantined: " if t.quarantined else "") + _last_line(t.error))
            for t in self.failures[:3]
        )
        more = "" if len(self.failures) <= 3 else " (+%d more)" % (len(self.failures) - 3)
        super().__init__(
            "%d trial(s) without results: %s%s"
            % (len(self.failures), preview, more)
        )


class TrialResult:
    """Outcome of one trial: a row, a cache hit, or a terminal error."""

    __slots__ = ("index", "config", "key", "row", "cached", "error",
                 "attempts", "quarantined", "worker")

    def __init__(self, index, config):
        self.index = index
        self.config = config
        self.key = trial_key(config)
        self.row = None
        self.cached = False
        self.error = None
        self.attempts = 0
        self.quarantined = False
        self.worker = None

    @property
    def ok(self):
        return self.row is not None

    def __repr__(self):
        state = ("cached" if self.cached else
                 "ok" if self.ok else
                 "quarantined" if self.quarantined else
                 "failed" if self.error else "pending")
        return "TrialResult(#%d %s %s)" % (self.index, self.config.protocol, state)


class CampaignResult:
    """All trial outcomes of one :meth:`CampaignEngine.run`, in order."""

    def __init__(self, trials, interrupted=None):
        self.trials = list(trials)
        #: Signal name (``"SIGINT"``/``"SIGTERM"``) when the run was
        #: checkpointed-and-exited mid-campaign, else None.
        self.interrupted = interrupted

    @property
    def executed(self):
        return sum(1 for t in self.trials if t.ok and not t.cached)

    @property
    def cached(self):
        return sum(1 for t in self.trials if t.cached)

    def failures(self):
        return [t for t in self.trials
                if t.error is not None and not t.quarantined]

    @property
    def failed(self):
        return len(self.failures())

    def quarantined(self):
        """Poison trials set aside by the retry policy (non-fatal)."""
        return [t for t in self.trials if t.quarantined]

    @property
    def coverage(self):
        """Fraction of trials with a row — 1.0 for a complete campaign."""
        if not self.trials:
            return 1.0
        return sum(1 for t in self.trials if t.ok) / len(self.trials)

    def completed(self):
        """Trials that produced a row, in submission order."""
        return [t for t in self.trials if t.ok]

    def completed_rows(self):
        """Rows of completed trials only — partial-aggregation input.

        Pair with :attr:`coverage` (and :meth:`quarantined`) so degraded
        coverage is reported, never silently averaged over.
        """
        return [t.row for t in self.trials if t.ok]

    def rows(self):
        """Every trial's metric row, in submission order.

        Raises :class:`CampaignError` if any trial lacks a row — failed,
        quarantined, or left pending by an interruption.  Callers that
        tolerate partial coverage use :meth:`completed_rows` instead.
        """
        missing = [t for t in self.trials if not t.ok]
        if missing:
            raise CampaignError(missing)
        return [t.row for t in self.trials]


class CampaignEngine:
    """Runs batches of scenario trials with caching, pooling, and retry.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) executes in-process — same
        results, no pool overhead.
    cache:
        A :class:`~repro.exec.cache.ResultCache`, or None to disable
        caching.  Corrupt or truncated entries are treated as misses and
        reported through the progress stream.
    retries:
        Extra attempts granted after a trial's first failure.
    timeout:
        Per-trial wall-clock budget in seconds (enforced portably inside
        the worker, see :mod:`repro.exec.deadline`), or None.  It also
        sets the stall budget (:func:`~repro.exec.supervise.stall_budget`):
        a pooled attempt still unresolved that long after it was handed
        to a worker is presumed wedged and the pool is force-recycled.
        Queued trials are not in flight, so their wait never counts.
        Without a timeout stall detection is off.
    progress:
        Callable receiving a :class:`~repro.exec.progress.Progress`
        snapshot after every settled trial.
    trace_dir:
        Directory for per-trial JSONL trace artifacts
        (``<key>.trace.jsonl``, see :mod:`repro.obs`), or None (default)
        for no tracing.  A cached trial whose artifact is missing *or
        fails to parse end-to-end* is re-executed so a valid artifact
        always exists afterwards; its row is byte-identical either way.
    trace_gzip:
        Store trace artifacts gzip-compressed (``<key>.trace.jsonl.gz``).
        Compression is deterministic, and readers sniff the format, so
        this only changes artifact size — never verdicts.  Switching it
        re-executes cached trials whose artifact exists under the other
        name.
    manifest:
        A :class:`~repro.exec.manifest.CampaignManifest` journaling this
        run (see :func:`~repro.exec.manifest.start_campaign` /
        :func:`~repro.exec.manifest.resume_campaign`), or None.  A
        journaled run on the main thread installs SIGINT/SIGTERM handlers
        that checkpoint-and-exit instead of losing the run.
    quarantine_after:
        Attempt ceiling after which a persistently failing trial is
        *quarantined* (reported, coverage-reducing, non-fatal) instead of
        failing the campaign.  When set it replaces ``retries`` as the
        attempt budget; None (default) keeps classic fail-after-retries.
    backoff_base:
        Base of the exponential retry backoff (seconds, capped at
        :data:`~repro.exec.supervise.BACKOFF_CAP`); jitter comes from the
        ``'exec'`` RNG stream keyed per trial, so retrying never perturbs
        result bytes.  ``backoff_base=0`` disables backoff.
    """

    def __init__(self, jobs=1, cache=None, retries=1, timeout=None,
                 progress=None, trace_dir=None, trace_gzip=False,
                 manifest=None, quarantine_after=None, backoff_base=0.05):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.progress = progress
        self.trace_dir = (
            pathlib.Path(trace_dir) if trace_dir is not None else None
        )
        self.trace_gzip = bool(trace_gzip)
        self.manifest = manifest
        self.policy = RetryPolicy(
            retries=retries, quarantine_after=quarantine_after,
            backoff_base=backoff_base,
        )
        self.stall_timeout = stall_budget(timeout)
        self._start = None
        self._interrupted = None
        self._work_done = 0
        #: Out-of-band warnings emitted during the last :meth:`run`
        #: (pool breakdowns, stalls, corrupt cache/trace entries,
        #: uncancellable deadline overruns).  Also forwarded to the
        #: progress callback as ``Progress.note``.
        self.warnings = []

    # -- public API ----------------------------------------------------

    def run(self, configs):
        """Execute every config; returns a :class:`CampaignResult`.

        Order of results matches the order of ``configs``.  Cached trials
        are never re-executed; failed trials are retried (with backoff)
        up to the policy's attempt ceiling and then surface as failed or
        quarantined in the result instead of raising.  Raises
        :class:`~repro.experiments.scenario.ConfigSerializationError`,
        before running anything, when a config has no stable key.
        """
        trials = [TrialResult(i, c) for i, c in enumerate(configs)]
        self._start = time.monotonic()
        self.warnings = []
        self._interrupted = None
        self._work_done = 0
        if self.manifest is not None and len(self.manifest.entries) != len(trials):
            raise ValueError(
                "journal registers %d trial(s) but %d config(s) were "
                "submitted; resume must replay the manifest's own configs"
                % (len(self.manifest.entries), len(trials)))
        pending = []
        for trial in trials:
            if self._absorb_journal_state(trial, trials):
                continue
            if self._serve_from_cache(trial, trials):
                continue
            pending.append(trial)

        previous = self._install_signals()
        try:
            self._dispatch(pending, trials)
        finally:
            self._restore_signals(previous)
        if self._interrupted and self.manifest is not None:
            self.manifest.note(
                "interrupted by %s; resume with: %s"
                % (self._interrupted, self.manifest.resume_command()))
        return CampaignResult(trials, interrupted=self._interrupted)

    def run_rows(self, configs):
        """:meth:`run` then :meth:`CampaignResult.rows` in one call."""
        return self.run(configs).rows()

    # -- journal & cache admission --------------------------------------

    def _absorb_journal_state(self, trial, trials):
        """Apply the manifest's reduced state; True when terminal."""
        if self.manifest is None:
            return False
        entry = self.manifest.entries.get(trial.index)
        if entry is None:
            return False
        trial.attempts = entry.attempts
        if entry.state == QUARANTINED:
            # Quarantine is sticky across resumes: the poison trial does
            # not get to burn the campaign's wall-clock again.
            trial.quarantined = True
            trial.error = entry.error or "quarantined"
            self._emit(trials)
            return True
        if entry.state == FAILED and self.policy.exhausted(entry.attempts) \
                and not self.policy.quarantines:
            trial.error = entry.error or "failed"
            self._emit(trials)
            return True
        return False

    def _serve_from_cache(self, trial, trials):
        """Serve a cached row (with a valid trace artifact); True on hit."""
        if self.cache is None:
            return False
        row, note = self.cache.lookup(trial.key)
        if note:
            self._warn(trials, note + "; re-executing trial #%d" % trial.index)
        if row is None:
            return False
        trace = self._trace_path(trial)
        if trace is not None:
            if not trace.is_file():
                return False  # artifact must exist; re-execute to write it
            ok, reason = trace_ok(trace)
            if not ok:
                self._warn(trials,
                           "corrupt trace artifact %s (%s); re-executing "
                           "trial #%d" % (trace.name, reason, trial.index))
                return False
        trial.row = row
        trial.cached = True
        self._settle(trial, trials)
        return True

    # -- execution paths -----------------------------------------------

    def _trace_path(self, trial):
        """Where this trial's trace artifact goes, or None (untraced)."""
        if self.trace_dir is None:
            return None
        suffix = ".trace.jsonl.gz" if self.trace_gzip else ".trace.jsonl"
        return self.trace_dir / (trial.key + suffix)

    def _payload(self, trial):
        payload = {"config": trial.config.to_dict(), "timeout": self.timeout}
        trace = self._trace_path(trial)
        if trace is not None:
            payload["trace"] = str(trace)
        return payload

    def _dispatch(self, pending, trials):
        """Run ``pending`` with at most ``jobs`` attempts in flight.

        An attempt starts only when a slot is free: inline with one job,
        on the pool otherwise.  A failed attempt waits out its backoff in
        ``waiting`` and rejoins the front of ``ready`` once it is due.  A
        broken pool is rebuilt up to :data:`POOL_RESPAWNS` times; after
        that the remaining trials run inline.
        """
        ready = list(pending)
        waiting = []  # (monotonic time the retry is due, trial)
        inflight = {}  # future -> (trial, monotonic start of the attempt)
        slots = self.jobs
        respawns = POOL_RESPAWNS
        pool = None
        try:
            while ready or waiting or inflight:
                if self._interrupted:
                    # Checkpoint-and-exit: refund the in-flight attempts
                    # (resume refunds their ``running`` records the same
                    # way) and kill the workers.  Nothing is cancel()ed: the
                    # manager thread could not fail a cancelled future.
                    for trial, _ in inflight.values():
                        trial.attempts -= 1
                    self._kill_pool_workers(pool)
                    return
                now = time.monotonic()
                ready[:0] = [trial for due, trial in waiting if due <= now]
                waiting[:] = [item for item in waiting if item[0] > now]
                while ready and len(inflight) < slots \
                        and not self._interrupted:
                    if slots > 1 and pool is None:
                        pool = ProcessPoolExecutor(
                            max_workers=min(slots, len(ready) + len(waiting)),
                            initializer=_worker.exit_with_parent,
                            initargs=(os.getpid(),))
                    trial = ready.pop(0)
                    future = self._attempt(trial, pool)
                    inflight[future] = (trial, time.monotonic())
                if not inflight:
                    if waiting:
                        time.sleep(min(_POLL,
                                       min(due for due, _ in waiting) - now))
                    continue
                done, _ = wait(inflight, timeout=_POLL,
                               return_when=FIRST_COMPLETED)
                broken = None
                for future in done:
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as err:
                        broken = err
                        continue
                    except Exception:
                        outcome = {"ok": False,
                                   "error": traceback.format_exc(limit=20)}
                    trial, _ = inflight.pop(future)
                    self._absorb_outcome(trial, trials, outcome, waiting)
                if broken is None:
                    self._scan_stalls(inflight, waiting, trials, pool)
                    continue
                # The in-flight attempts died *with the pool*; none was
                # observed to fail, so refund them instead of charging
                # their retry budgets.
                lost = [trial for trial, _ in inflight.values()]
                for trial in lost:
                    trial.attempts -= 1
                ready[:0] = lost
                inflight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                if self.manifest is not None:
                    self.manifest.note("worker pool broke: %s" % broken)
                left = len(ready) + len(waiting)
                if respawns > 0:
                    respawns -= 1
                    self._warn(trials,
                               "worker pool broke (%s); respawning pool for "
                               "%d trial(s)" % (broken, left))
                else:
                    slots = 1
                    self._warn(trials,
                               "worker pool broke (%s); finishing %d "
                               "trial(s) in-process" % (broken, left))
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _attempt(self, trial, pool):
        """Start ``trial``'s next attempt; returns its future.

        Without a pool the attempt runs here and the future comes back
        finished.  The worker function is looked up on its module at call
        time, so a wrapper installed there sees every attempt.
        """
        trial.attempts += 1
        self._record(trial, RUNNING)
        payload = self._payload(trial)
        future = Future()
        try:
            if pool is None:
                future.set_result(_worker.run_trial_payload(payload))
            else:
                future = pool.submit(_worker.run_trial_payload, payload)
        except BrokenProcessPool as err:
            # A pool that broke since the last poll refuses the submit;
            # the loop treats that like any other broken future.
            future.set_exception(err)
        return future

    def _absorb_outcome(self, trial, trials, outcome, waiting):
        if outcome.get("warning"):
            self._warn(trials, outcome["warning"])
        if outcome["ok"]:
            trial.row = outcome["row"]
            trial.worker = outcome.get("worker")
            self._work_done += 1
            self._settle(trial, trials)
            return
        trial.error = outcome["error"]
        if self.policy.exhausted(trial.attempts):
            trial.quarantined = self.policy.quarantines
            self._work_done += 1
            self._settle(trial, trials)
            return
        self._record(trial, FAILED, error=trial.error)
        trial.error = None
        delay = self.policy.delay_before(trial.key, trial.attempts + 1)
        waiting.append((time.monotonic() + delay, trial))

    def _scan_stalls(self, inflight, waiting, trials, pool):
        """Declare over-budget in-flight attempts stalled; recycle the pool."""
        if self.stall_timeout is None or not inflight:
            return
        now = time.monotonic()
        stalled = [future for future, (_, started) in inflight.items()
                   if now - started > self.stall_timeout]
        if not stalled:
            return
        for future in stalled:
            trial, _ = inflight.pop(future)
            message = (
                "trial #%d stalled: no result after %gs (worker presumed "
                "wedged); recycling the worker pool"
                % (trial.index, self.stall_timeout))
            self._warn(trials, message)
            if self.manifest is not None:
                self.manifest.note(message)
            outcome = {"ok": False,
                       "error": "stalled: no result after %gs"
                                % self.stall_timeout}
            self._absorb_outcome(trial, trials, outcome, waiting)
        self._kill_pool_workers(pool)

    @staticmethod
    def _kill_pool_workers(pool):
        """SIGKILL the pool's workers (best effort, private API)."""
        procs = getattr(pool, "_processes", None)
        if not procs:
            return False
        for proc in list(procs.values()):
            try:
                proc.kill()
            except (OSError, AttributeError):  # pragma: no cover
                pass
        return True

    # -- interruption ----------------------------------------------------

    def _install_signals(self):
        """Checkpoint-and-exit handlers for journaled main-thread runs."""
        if self.manifest is None:
            return None
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}

        def handler(signum, frame):
            if self._interrupted:
                # Second signal: the user means it — restore the previous
                # handlers and fail hard.
                self._restore_signals(previous)
                raise KeyboardInterrupt
            self._interrupted = signal.Signals(signum).name

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover - platform
                continue
        return previous

    @staticmethod
    def _restore_signals(previous):
        if not previous:
            return
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):  # pragma: no cover - platform
                continue

    # -- bookkeeping ---------------------------------------------------

    def _record(self, trial, state, error=None):
        if self.manifest is None:
            return
        self.manifest.record_state(trial.index, state,
                                   attempt=trial.attempts, error=error)

    def _settle(self, trial, trials):
        if trial.ok and not trial.cached and self.cache is not None:
            self.cache.put(trial.key, trial.row, config=trial.config)
        if self.manifest is not None:
            entry = self.manifest.entries.get(trial.index)
            if trial.quarantined:
                if entry is None or entry.state != QUARANTINED:
                    self.manifest.record_state(
                        trial.index, QUARANTINED, attempt=trial.attempts,
                        error=trial.error)
            elif trial.ok:
                if entry is None or entry.state != DONE:
                    self.manifest.record_state(
                        trial.index, DONE, attempt=trial.attempts,
                        worker=trial.worker, cached=trial.cached)
            elif trial.error is not None:
                if entry is None or entry.state != FAILED \
                        or entry.attempts != trial.attempts:
                    self.manifest.record_state(
                        trial.index, FAILED, attempt=trial.attempts,
                        error=trial.error)
        self._emit(trials)

    def _warn(self, trials, message):
        """Record a warning and push it through the progress reporter."""
        self.warnings.append(message)
        self._emit(trials, note=message)

    def _emit(self, trials, note=None):
        if self.progress is None:
            return
        executed = cached = failed = quarantined = 0
        for trial in trials:
            if trial.cached:
                cached += 1
            elif trial.quarantined:
                quarantined += 1
            elif trial.error is not None:
                failed += 1
            elif trial.row is not None:
                executed += 1
        self.progress(Progress(
            total=len(trials),
            done=executed + cached + failed + quarantined,
            executed=executed,
            cached=cached,
            failed=failed,
            elapsed=time.monotonic() - self._start,
            note=note,
            quarantined=quarantined,
            work=self._work_done,
        ))
