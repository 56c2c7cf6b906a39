"""Journaled campaign manifests: the crash-tolerant campaign record.

A *journaled* campaign writes every scheduling decision to an append-only
``manifest.jsonl`` next to its result cache and trace artifacts::

    <campaign-dir>/manifest.jsonl    the journal (this module)
    <campaign-dir>/cache/            ResultCache rows, keyed by trial key
    <campaign-dir>/traces/           per-trial trace artifacts (optional)

The journal records *execution state* — pending/running/done/failed/
quarantined transitions, attempt counts, worker pids, wall-clock stamps —
strictly out-of-band of result identity: rows live in the content-hash
cache and trace artifacts are written atomically, so nothing in the
journal can alter what a trial computes.  That separation is what makes
``repro campaign resume <dir>`` sound: resuming re-derives exactly the
outstanding work from the journal, serves finished trials from the cache,
and the merged :class:`~repro.exec.engine.CampaignResult` is
byte-identical to an uninterrupted run.

Every record is one JSON line, flushed and fsynced before the engine acts
on it, so a SIGKILL at any instant leaves at worst one torn final line.
Loading tolerates exactly that: a partial *last* line is dropped and the
file is truncated back to the last committed record (the transition the
torn line described simply re-executes), so appends after a resume always
start on a clean line; a broken line anywhere else is real corruption and
raises :class:`ManifestError`.
"""

import json
import os
import pathlib
import time

from repro.exec.cache import trial_key

#: Journal format version; bump when record shapes change.
#: 2: trial configs lost ``channel_index`` and ``scheduler``, and the
#:    header's engine options lost the backoff cap and the stall-budget
#:    override.  A schema-1 journal is refused, not migrated.
#: 3: trial configs lost ``gray_zone`` and ``loop_check``.  A schema-2
#:    journal is refused, not migrated.
MANIFEST_SCHEMA = 3

#: File name of the journal inside a campaign directory.
MANIFEST_NAME = "manifest.jsonl"

# -- trial states ------------------------------------------------------

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"

#: States after which a trial is never re-executed by ``resume``.
TERMINAL_STATES = frozenset({DONE, QUARANTINED})

_STATES = frozenset({PENDING, RUNNING, DONE, FAILED, QUARANTINED})


class ManifestError(ValueError):
    """The journal is unreadable beyond torn-tail tolerance."""


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _truncate_to(path, size):
    """Cut the journal back to ``size`` bytes and commit the repair."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
        handle.flush()
        os.fsync(handle.fileno())


class TrialEntry:
    """One trial's reduced journal state."""

    __slots__ = ("index", "key", "config", "state", "attempts", "worker",
                 "error", "updated")

    def __init__(self, index, key, config):
        self.index = index
        self.key = key
        self.config = config  # serialized ScenarioConfig dict
        self.state = PENDING
        self.attempts = 0
        self.worker = None
        self.error = None
        self.updated = None

    def __repr__(self):
        return "TrialEntry(#%d %s attempts=%d)" % (
            self.index, self.state, self.attempts)


class CampaignManifest:
    """The append-only journal of one campaign directory.

    Use :meth:`create` for a fresh campaign and :meth:`load` to resume;
    the engine records transitions through :meth:`record_state` /
    :meth:`note`.  Writes are committed (flush + fsync) per record.
    """

    def __init__(self, path, header, entries, torn_tail=False):
        self.path = pathlib.Path(path)
        self.header = header
        self.entries = entries  # index -> TrialEntry
        self.torn_tail = torn_tail
        self._handle = None

    # -- construction --------------------------------------------------

    @classmethod
    def create(cls, path, configs, name="campaign", engine_opts=None,
               meta=None):
        """Start a fresh journal registering every trial of ``configs``.

        Raises :class:`~repro.experiments.scenario.
        ConfigSerializationError` for configs without a stable content
        key — journaled campaigns require resumable (serializable)
        trials — and :class:`FileExistsError` when ``path`` already holds
        a journal (resume instead of restarting).
        """
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "type": "header",
            "schema": MANIFEST_SCHEMA,
            "name": name,
            "created": time.time(),
            "engine": dict(engine_opts or {}),
            "meta": dict(meta or {}),
        }
        entries = {}
        lines = [_dumps(header)]
        for index, config in enumerate(configs):
            key = trial_key(config)
            entry = TrialEntry(index, key, config.to_dict())
            entries[index] = entry
            lines.append(_dumps({
                "type": "trial", "index": index, "key": key,
                "config": entry.config,
            }))
        with open(path, "x", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return cls(path, header, entries)

    @classmethod
    def load(cls, path):
        """Parse a journal, reducing transitions to per-trial state.

        A torn final line (the signature a SIGKILL or a truncated tail
        leaves) is dropped — the transition it described re-executes — the
        file is truncated back to the end of the last committed record so
        later appends start on a clean line, and ``torn_tail`` is set so
        callers can surface it.  Unreadable lines anywhere else raise
        :class:`ManifestError`.
        """
        path = pathlib.Path(path)
        try:
            raw = path.read_bytes()
        except OSError as err:
            raise ManifestError("cannot read journal %s: %s" % (path, err))
        # Split by hand, keeping each line's starting byte offset so a
        # torn tail can be truncated away rather than merely skipped —
        # skipping alone would let the next append merge onto the partial
        # line and corrupt the journal mid-file.
        lines = []  # (lineno, start byte offset, line bytes); non-blank
        pos = 0
        lineno = 0
        while pos < len(raw):
            newline = raw.find(b"\n", pos)
            end = len(raw) if newline < 0 else newline
            chunk = raw[pos:end]
            lineno += 1
            if chunk.strip():
                lines.append((lineno, pos, chunk))
            pos = end + 1
        if not lines:
            raise ManifestError("%s: empty journal" % path)
        docs = []
        torn_tail = False
        for position, (lineno, start, chunk) in enumerate(lines):
            try:
                doc = json.loads(chunk.decode("utf-8"))
                if not isinstance(doc, dict) or "type" not in doc:
                    raise ValueError("not a journal record")
            except ValueError as err:  # UnicodeDecodeError included
                if position == len(lines) - 1:
                    torn_tail = True  # torn tail: drop and repair
                    _truncate_to(path, start)
                    break
                raise ManifestError(
                    "%s:%d: unreadable journal record: %s"
                    % (path, lineno, err))
            docs.append((lineno, doc))
        if not docs or docs[0][1].get("type") != "header":
            raise ManifestError(
                "%s: first record is not a campaign header" % path)
        header = docs[0][1]
        if header.get("schema") != MANIFEST_SCHEMA:
            raise ManifestError(
                "%s: journal schema %r, this reader understands %r"
                % (path, header.get("schema"), MANIFEST_SCHEMA))
        entries = {}
        for lineno, doc in docs[1:]:
            kind = doc.get("type")
            if kind == "trial":
                try:
                    entry = TrialEntry(int(doc["index"]), doc["key"],
                                       doc["config"])
                except (KeyError, TypeError, ValueError) as err:
                    raise ManifestError(
                        "%s:%d: bad trial record: %s" % (path, lineno, err))
                entries[entry.index] = entry
            elif kind == "state":
                try:
                    entry = entries[int(doc["index"])]
                    state = doc["state"]
                    if state not in _STATES:
                        raise ValueError("unknown state %r" % state)
                except (KeyError, TypeError, ValueError) as err:
                    raise ManifestError(
                        "%s:%d: bad state record: %s" % (path, lineno, err))
                entry.state = state
                entry.attempts = int(doc.get("attempt", entry.attempts))
                entry.worker = doc.get("worker", entry.worker)
                entry.error = doc.get("error", entry.error)
                entry.updated = doc.get("t", entry.updated)
            elif kind == "note":
                continue
            else:
                raise ManifestError(
                    "%s:%d: unknown record type %r" % (path, lineno, kind))
        for entry in entries.values():
            if entry.state == RUNNING:
                # The in-flight attempt died with the campaign; it was
                # never observed to fail, so refund it (mirrors the
                # engine's BrokenProcessPool refund).
                entry.attempts = max(0, entry.attempts - 1)
        return cls(path, header, entries, torn_tail=torn_tail)

    # -- recording ------------------------------------------------------

    def _append(self, doc):
        if self._handle is None:
            # A crash can commit a record's bytes but not its newline:
            # the line parses on load (so it must be kept, not truncated)
            # yet appending straight after it would merge two records.
            # Start a fresh line in that case.
            unterminated = False
            try:
                with open(self.path, "rb") as tail:
                    tail.seek(-1, os.SEEK_END)
                    unterminated = tail.read(1) != b"\n"
            except OSError:
                pass  # missing or empty file: nothing to terminate
            self._handle = open(self.path, "a", encoding="utf-8")
            if unterminated:
                self._handle.write("\n")
        self._handle.write(_dumps(doc) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record_state(self, index, state, attempt, worker=None, error=None,
                     cached=False):
        """Commit one state transition for trial ``index``."""
        entry = self.entries[index]
        doc = {
            "type": "state", "index": index, "state": state,
            "attempt": int(attempt), "t": time.time(),
        }
        if worker is not None:
            doc["worker"] = worker
        if error is not None:
            # The last traceback line is plenty for the journal; the full
            # text stays on the TrialResult.
            tail = str(error).strip().splitlines()
            doc["error"] = (tail[-1] if tail else "(no error text)")[:500]
        if cached:
            doc["cached"] = True
        self._append(doc)
        entry.state = state
        entry.attempts = int(attempt)
        entry.worker = worker if worker is not None else entry.worker
        entry.error = doc.get("error", entry.error)

    def note(self, message):
        """Commit an out-of-band annotation (stalls, degradations...)."""
        self._append({"type": "note", "message": str(message),
                      "t": time.time()})

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- queries --------------------------------------------------------

    def ordered_entries(self):
        """Trial entries in submission (index) order."""
        return [self.entries[index] for index in sorted(self.entries)]

    def outstanding(self, max_attempts):
        """Indices that still need execution under ``max_attempts``."""
        pending = []
        for entry in self.ordered_entries():
            if entry.state in TERMINAL_STATES:
                continue
            if entry.state == FAILED and entry.attempts >= max_attempts:
                continue
            pending.append(entry.index)
        return pending

    def counts(self):
        """``{state: count}`` over every registered trial."""
        totals = {state: 0 for state in sorted(_STATES)}
        for entry in self.entries.values():
            totals[entry.state] += 1
        return totals

    def resume_command(self):
        """The CLI invocation that continues this campaign."""
        return "python -m repro campaign resume %s" % self.path.parent


# -- campaign directories ----------------------------------------------


def campaign_paths(root):
    """``(manifest, cache_dir, trace_dir)`` paths inside ``root``."""
    root = pathlib.Path(root)
    return root / MANIFEST_NAME, root / "cache", root / "traces"


def _engine_from(root, manifest, progress=None, jobs=None):
    from repro.exec.cache import ResultCache
    from repro.exec.engine import CampaignEngine

    manifest_path, cache_dir, trace_dir = campaign_paths(root)
    opts = manifest.header.get("engine", {})
    return CampaignEngine(
        jobs=jobs if jobs is not None else opts.get("jobs", 1),
        cache=ResultCache(cache_dir),
        retries=opts.get("retries", 1),
        timeout=opts.get("timeout"),
        quarantine_after=opts.get("quarantine_after"),
        backoff_base=opts.get("backoff_base", 0.05),
        trace_dir=trace_dir if opts.get("trace") else None,
        trace_gzip=opts.get("trace_gzip", False),
        progress=progress,
        manifest=manifest,
    )


def start_campaign(root, configs, name="campaign", meta=None, jobs=1,
                   retries=1, timeout=None, quarantine_after=None,
                   backoff_base=0.05, trace=False, trace_gzip=False,
                   progress=None):
    """Create a journaled campaign directory; returns ``(manifest, engine)``.

    The engine is wired to the directory's cache, trace dir, and journal;
    run it with the same ``configs`` (``engine.run(configs)``).
    """
    root = pathlib.Path(root)
    manifest_path, cache_dir, trace_dir = campaign_paths(root)
    engine_opts = {
        "jobs": jobs, "retries": retries, "timeout": timeout,
        "quarantine_after": quarantine_after, "backoff_base": backoff_base,
        "trace": bool(trace), "trace_gzip": bool(trace_gzip),
    }
    configs = list(configs)
    manifest = CampaignManifest.create(
        manifest_path, configs, name=name, engine_opts=engine_opts,
        meta=meta)
    cache_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
    return manifest, _engine_from(root, manifest, progress=progress)


def resume_campaign(root, progress=None, jobs=None):
    """Resume (or finish reporting) the journaled campaign at ``root``.

    Loads the journal, rebuilds the trial configs, and runs the engine —
    which serves finished trials from the campaign cache and executes
    exactly the outstanding remainder.  Returns ``(manifest, result)``
    where ``result`` is the merged :class:`CampaignResult`,
    byte-identical to what an uninterrupted run would have produced.
    """
    from repro.experiments.scenario import ScenarioConfig

    root = pathlib.Path(root)
    manifest_path, _, _ = campaign_paths(root)
    manifest = CampaignManifest.load(manifest_path)
    engine = _engine_from(root, manifest, progress=progress, jobs=jobs)
    configs = [ScenarioConfig.from_dict(dict(entry.config))
               for entry in manifest.ordered_entries()]
    result = engine.run(configs)
    return manifest, result
