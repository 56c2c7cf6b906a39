"""On-disk cache of trial results keyed by scenario content.

A trial is a pure function of its :class:`~repro.experiments.scenario.
ScenarioConfig` (the seed is part of the config), so its
``RunReport.as_dict()`` row can be cached forever under a content hash of
the config.  Re-running a campaign, or sharing trials between Table 1 and
Figures 2–5, then costs one JSON read per trial instead of a simulation.

Keys additionally fold in a schema number and the package version so a
code change that could alter results invalidates old entries rather than
silently serving stale rows.
"""

import errno
import hashlib
import json
import os
import pathlib
import tempfile
import time

import repro

#: Bump when the cached row format or anything influencing simulation
#: results changes without a package version bump.
#: 2: rows gained loop_violations / invariant_violations / invariant_breakdown
#:    and configs gained fault_plan + invariant_check fields.
#: 3: configs gained channel_index (spatial fast path seam); grid and scan
#:    rows are byte-identical, but the serialized config payload changed
#:    shape, so pre-seam entries must miss rather than alias.
#: 4: configs gained the trace opt-in (repro.obs); tracing is passive and
#:    rows are unchanged, but the serialized config payload changed shape
#:    again, and traced trials may now carry a sibling ``*.trace.jsonl``
#:    artifact next to their row.
#: 5: configs gained pinned placements/flows (repro.verify counterexample
#:    scenarios); the serialized payload changed shape, and trace
#:    artifacts moved to schema 2 (route events carry the destination's
#:    own label, fault events carry structured detail, headers carry the
#:    truncation flag) with optional ``.trace.jsonl.gz`` compression.
#: 6: configs gained the scheduler backend (event-kernel seam); heap and
#:    calendar rows are byte-identical (differential suite), but the
#:    serialized config payload changed shape, so pre-seam entries must
#:    miss rather than alias.
#: 7: configs lost channel_index and scheduler again; the kernel classes
#:    are Scenario keywords that only tests and the kernel bench set, so
#:    they are no longer trial identity.  Rows are unchanged, but every
#:    serialized config (and so every key) changed.
CACHE_SCHEMA = 7

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir():
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-ldr``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-ldr"


def trial_key(config):
    """Stable content hash identifying one trial's result.

    Covers the full scenario config (seed included), the cache schema and
    the package version.  Raises
    :class:`~repro.experiments.scenario.ConfigSerializationError` for
    configs carrying live objects.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "version": repro.__version__,
        "config": config.to_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of ``<key[:2]>/<key>.json`` trial-result documents.

    Writes are atomic (temp file + ``os.replace``), so concurrent
    campaigns sharing a cache directory never observe torn entries; the
    worst case under a race is one redundant write of identical content.
    """

    def __init__(self, root=None):
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key):
        return self.root / key[:2] / (key + ".json")

    def trace_path(self, key, gzipped=False):
        """Where a traced trial's JSONL artifact lives, next to its row."""
        suffix = ".trace.jsonl.gz" if gzipped else ".trace.jsonl"
        return self.root / key[:2] / (key + suffix)

    def lookup(self, key):
        """``(row, note)`` for ``key``.

        ``row`` is None on a miss.  ``note`` is a warning string when the
        entry *existed* but was unreadable — truncated JSON, a torn write
        from a killed process, a schema-shaped payload without a row —
        which is treated as a miss (the trial simply re-executes) but
        must be surfaced, not swallowed: silent corruption that always
        re-executes looks exactly like a cold cache.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            row = doc["row"]
            if not isinstance(row, dict):
                raise TypeError("row payload is %s, expected an object"
                                % type(row).__name__)
        except FileNotFoundError:
            self.misses += 1
            return None, None
        except (OSError, ValueError, KeyError, TypeError) as err:
            self.misses += 1
            return None, (
                "corrupt cache entry %s (%s: %s); treating as a miss"
                % (path.name, type(err).__name__, err))
        self.hits += 1
        return row, None

    def get(self, key):
        """The cached row for ``key``, or None (corrupt entries = miss)."""
        return self.lookup(key)[0]

    def put(self, key, row, config=None):
        """Store ``row`` under ``key`` atomically.

        ``config`` (a :class:`ScenarioConfig`), when given, is stored
        alongside so ``repro cache --list`` can describe entries.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"key": key, "row": row, "created": time.time()}
        if config is not None:
            doc["config"] = config.to_dict()
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key):
        return self._path(key).is_file()

    def iter_entries(self):
        """Yield every readable cache document (unordered)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    yield json.load(fh)
            except (OSError, ValueError):
                continue

    def stats(self):
        """``{"dir", "entries", "traces", "bytes"}`` for ``repro cache``."""
        entries = 0
        traces = 0
        total_bytes = 0
        if self.root.is_dir():
            for path in self.root.glob("??/*.json"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            for pattern in ("??/*.trace.jsonl", "??/*.trace.jsonl.gz"):
                for path in self.root.glob(pattern):
                    try:
                        total_bytes += path.stat().st_size
                    except OSError:
                        continue
                    traces += 1
        return {"dir": str(self.root), "entries": entries, "traces": traces,
                "bytes": total_bytes}

    def clear(self):
        """Delete every entry (trace artifacts too); returns rows removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for pattern in ("??/*.trace.jsonl", "??/*.trace.jsonl.gz"):
            for path in self.root.glob(pattern):
                try:
                    path.unlink()
                except OSError as exc:
                    if exc.errno != errno.ENOENT:
                        raise
        for path in self.root.glob("??/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError as exc:
                if exc.errno != errno.ENOENT:
                    raise
        for shard in self.root.glob("??"):
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed

    def describe_entry(self, doc):
        """One human line for ``repro cache --list``."""
        from repro.experiments.scenario import ScenarioConfig

        key = doc.get("key", "?")[:12]
        config = doc.get("config")
        if config:
            try:
                cfg = ScenarioConfig.from_dict(config)
                return "%s  %-6s n=%-3d flows=%-2d pause=%-5g dur=%-5g seed=%d" % (
                    key, cfg.protocol, cfg.num_nodes, cfg.num_flows,
                    cfg.pause_time, cfg.duration, cfg.seed,
                )
            except (ValueError, TypeError):
                pass
        return "%s  (no config recorded)" % key
