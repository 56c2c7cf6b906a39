"""Merge and stream partial shard result sets into one campaign view.

The shard fabric (:mod:`repro.exec.shard`) turns one campaign into K
independent journaled campaigns.  This module folds them back together:

* :func:`merge_campaign` loads every shard under ``<root>/shards/`` (or a
  plain unjournaled-shard campaign root, treated as one implicit shard
  covering everything), validates that the shards were cut from the same
  grid (fingerprint, plan, schema), detects key overlap and coverage
  gaps, and returns a :class:`MergedCampaign` — refusing to *certify* an
  incomplete merge unless ``partial=True``.
* :func:`watch_campaign` re-merges as shard journals grow, streaming a
  running coverage/CDF line to the terminal and appending newly
  completed rows to a CSV — aggregation happens while trials are still
  landing, the ``run_many.py``/``stream_csv.py`` shape.

Merges render by the journal header's grid name (``experiments.grids``).

The invariant inherited from the journal discipline: rows live in each
shard's content-hash cache and trace artifacts are written atomically, so
the merged table and artifact set of a K-shard campaign are
**byte-identical** to the same campaign run unsharded — merging is pure
bookkeeping and cannot alter a result.
"""

import json
import pathlib
import shutil
import time

from repro.exec.cache import ResultCache
from repro.exec.manifest import (
    DONE,
    MANIFEST_NAME,
    QUARANTINED,
    CampaignManifest,
)
from repro.exec.shard import SHARD_SCHEMA, campaign_fingerprint, shards_root
from repro.experiments.grids import GRIDS
from repro.metrics.report import ROW_FIELDS


#: CDF percentiles rendered on the terminal status line.
_PERCENTILES = (10, 50, 90)


class AggregateError(RuntimeError):
    """Shards cannot be merged (incompatible, overlapping, unreadable)."""


class CoverageError(AggregateError):
    """The merge is valid but incomplete, and ``partial`` was not given."""

    def __init__(self, gaps, unfinished):
        self.gaps = list(gaps)
        self.unfinished = list(unfinished)
        parts = []
        if self.gaps:
            parts.append("%d trial(s) not registered by any shard "
                         "(e.g. #%d)" % (len(self.gaps), self.gaps[0]))
        if self.unfinished:
            parts.append("%d registered trial(s) not yet terminal "
                         "(e.g. #%d)" % (len(self.unfinished),
                                         self.unfinished[0]))
        super().__init__(
            "incomplete coverage: %s; pass partial=True (--partial) to "
            "aggregate what is there" % "; ".join(parts))


class MergedTrial:
    """One trial's merged view: identity, terminal state, row, artifact."""

    __slots__ = ("index", "key", "config", "state", "row", "quarantined",
                 "error", "shard", "trace")

    def __init__(self, index, key, config, state, shard):
        self.index = index
        self.key = key
        self.config = config  # serialized ScenarioConfig dict
        self.state = state
        self.row = None
        self.quarantined = state == QUARANTINED
        self.error = None
        self.shard = shard  # shard index, or None for an implicit shard
        self.trace = None  # pathlib.Path of the artifact, when present

    @property
    def ok(self):
        return self.row is not None


class ShardView:
    """One shard directory reduced to mergeable facts."""

    def __init__(self, path, manifest, shard_info, labels, name):
        self.path = pathlib.Path(path)
        self.manifest = manifest
        self.shard = shard_info  # dict from the shard meta, or None
        self.labels = labels
        self.name = name
        self.warnings = []

    @classmethod
    def load(cls, path):
        """Load ``path`` as a shard (torn journal tails are tolerated)."""
        path = pathlib.Path(path)
        manifest = CampaignManifest.load(path / MANIFEST_NAME)
        meta = manifest.header.get("meta", {})
        shard_info = meta.get("shard")
        labels = meta.get("labels")
        view = cls(path, manifest, shard_info, labels,
                   manifest.header.get("name"))
        if manifest.torn_tail:
            view.warnings.append(
                "%s: journal had a torn final record (crash signature); "
                "the transition it described was dropped" % path)
        view._validate()
        return view

    def _validate(self):
        entries = self.manifest.ordered_entries()
        if self.shard is None:
            return  # implicit single shard: local indices are global
        try:
            schema = self.shard["schema"]
            indices = list(self.shard["indices"])
            int(self.shard["shards"])
            int(self.shard["total"])
            self.shard["fingerprint"]
        except (KeyError, TypeError, ValueError) as err:
            raise AggregateError("%s: malformed shard meta: %s"
                                 % (self.path, err))
        if schema != SHARD_SCHEMA:
            raise AggregateError(
                "%s: shard schema %r, this reader understands %r"
                % (self.path, schema, SHARD_SCHEMA))
        if len(indices) != len(entries):
            raise AggregateError(
                "%s: shard meta registers %d trial(s) but the journal "
                "holds %d" % (self.path, len(indices), len(entries)))

    # -- mergeable facts -----------------------------------------------

    @property
    def total(self):
        """Registered size of the FULL campaign this shard belongs to."""
        if self.shard is None:
            return len(self.manifest.entries)
        return int(self.shard["total"])

    @property
    def fingerprint(self):
        if self.shard is None:
            return campaign_fingerprint(
                entry.key for entry in self.manifest.ordered_entries())
        return self.shard["fingerprint"]

    def global_entries(self):
        """``[(global_index, TrialEntry), ...]`` in global order."""
        entries = self.manifest.ordered_entries()
        if self.shard is None:
            return [(entry.index, entry) for entry in entries]
        return list(zip(self.shard["indices"], entries))

    def cache(self):
        return ResultCache(self.path / "cache")

    def trace_artifact(self, key):
        """The trial's trace artifact path, or None when absent."""
        for suffix in (".trace.jsonl", ".trace.jsonl.gz"):
            candidate = self.path / "traces" / (key + suffix)
            if candidate.is_file():
                return candidate
        return None


class MergedCampaign:
    """The folded view of every shard of one campaign."""

    def __init__(self, root, views, trials, gaps, unfinished):
        self.root = pathlib.Path(root)
        self.views = views
        #: global index -> :class:`MergedTrial`, registered trials only.
        self.trials = trials
        self.gaps = gaps  # global indices no shard registered
        self.unfinished = unfinished  # registered but not terminal
        self.total = views[0].total if views else 0
        self.labels = next(
            (view.labels for view in views if view.labels), None)
        self.name = views[0].name if views else None
        self.grid = GRIDS.get(self.name)
        # An unregistered grid's rows are labelled by the config's protocol.
        self.coordinates = (self.grid.coordinates if self.grid is not None
                            else ("protocol",))
        self.warnings = [w for view in views for w in view.warnings]
        if self.grid is not None:
            self._check_labels()

    def _check_labels(self):
        labels = self.labels or []
        if len(labels) != self.total:
            raise AggregateError(
                "meta labels cover %d trial(s) but the campaign registers "
                "%d" % (len(labels), self.total))
        arity = len(self.coordinates)
        for index, label in enumerate(labels):
            if not isinstance(label, list) or len(label) != arity:
                raise AggregateError(
                    "meta label #%d is %r; a %r label has %d coordinate(s) "
                    "(%s)" % (index, label, self.name, arity,
                              ", ".join(self.coordinates)))

    @property
    def completed(self):
        return sum(1 for trial in self.trials.values() if trial.ok)

    @property
    def quarantined(self):
        return sum(1 for t in self.trials.values() if t.quarantined)

    @property
    def coverage(self):
        """Fraction of the campaign in a terminal state (done/quarantined)."""
        if not self.total:
            return 1.0
        terminal = sum(1 for t in self.trials.values()
                       if t.ok or t.quarantined)
        return terminal / self.total

    @property
    def complete(self):
        return not self.gaps and not self.unfinished

    def ordered_trials(self):
        """Registered trials in global submission order."""
        return [self.trials[index] for index in sorted(self.trials)]

    def completed_rows(self):
        return [t.row for t in self.ordered_trials() if t.ok]

    def render_table(self):
        """The grid's render — byte-identical to the unsharded run's."""
        placeholder = MergedTrial(-1, None, None, "pending", None)
        trials = [self.trials.get(index, placeholder)
                  for index in range(self.total)]
        return self.grid.render(self.labels, trials)

    @property
    def columns(self):
        """The rows CSV's columns: the index, label coordinates and
        identity, then every scalar row field (values are JSON-rendered so
        repeated merges emit byte-identical files)."""
        return (("index",) + self.coordinates + ("seed", "key", "state")
                + ROW_FIELDS)

    def csv_rows(self):
        """Every registered trial as a CSV line dict, in global order."""
        rows = []
        for trial in self.ordered_trials():
            config = trial.config or {}
            row = trial.row or {}
            label = (self.labels[trial.index] if self.grid is not None
                     else [config.get("protocol", "")])
            line = dict(zip(self.coordinates, label))
            line.update(index=trial.index, seed=config.get("seed", ""),
                        key=trial.key, state=trial.state)
            for column in ROW_FIELDS:
                line[column] = row.get(column, "")
            rows.append(line)
        return rows


# -- merging ------------------------------------------------------------


def shard_dirs(root):
    """Shard campaign directories under ``root``, sorted; or the root
    itself as an implicit single shard when it holds a journal directly.
    """
    root = pathlib.Path(root)
    shards = shards_root(root)
    if shards.is_dir():
        found = sorted(p for p in shards.iterdir()
                       if p.is_dir() and (p / MANIFEST_NAME).is_file())
        if found:
            return found
    if (root / MANIFEST_NAME).is_file():
        return [root]
    raise AggregateError(
        "%s holds neither shards/*/%s nor a %s of its own"
        % (root, MANIFEST_NAME, MANIFEST_NAME))


def merge_campaign(root, partial=False):
    """Merge every shard under ``root`` into one :class:`MergedCampaign`.

    Validates that all shards were cut from the same campaign (same
    fingerprint over the full ordered trial-key list, same plan shape),
    that no two shards registered the same trial (overlap), and that the
    union covers every trial with a terminal state — raising
    :class:`CoverageError` on gaps or unfinished work unless ``partial``
    is set.  Corrupt cache entries degrade to uncovered trials with a
    warning, never to wrong rows.
    """
    views = [ShardView.load(path) for path in shard_dirs(root)]
    first = views[0]
    plans = set()
    for view in views:
        if view.fingerprint != first.fingerprint:
            raise AggregateError(
                "%s and %s disagree on the campaign fingerprint — they "
                "were cut from different grids and must not be merged"
                % (first.path, view.path))
        if view.total != first.total:
            raise AggregateError(
                "%s registers a campaign of %d trial(s), %s of %d"
                % (first.path, first.total, view.path, view.total))
        if view.name != first.name:
            raise AggregateError(
                "campaign names differ across shards: %r vs %r"
                % (first.name, view.name))
        if view.shard is not None:
            plans.add(int(view.shard["shards"]))
    if len(plans) > 1:
        raise AggregateError(
            "shards follow different plans: %s"
            % ", ".join("%d shard(s)" % plan for plan in sorted(plans)))

    trials = {}
    unfinished = []
    for view in views:
        cache = view.cache()
        for index, entry in view.global_entries():
            if index in trials:
                raise AggregateError(
                    "trial #%d is registered by two shards (%s and %s) — "
                    "overlapping key ranges; refusing to merge"
                    % (index, trials[index].shard, view.path))
            shard_index = (view.shard["index"]
                           if view.shard is not None else None)
            trial = MergedTrial(index, entry.key, entry.config,
                                entry.state, shard_index)
            trials[index] = trial
            if entry.state == DONE:
                row, note = cache.lookup(entry.key)
                if row is None:
                    message = ("shard %s: trial #%d is journaled done but "
                               "its cached row is missing or corrupt%s; "
                               "counting it as unfinished"
                               % (view.path.name, index,
                                  " (%s)" % note if note else ""))
                    view.warnings.append(message)
                    trial.state = "pending"
                    unfinished.append(index)
                else:
                    trial.row = row
                    trial.trace = view.trace_artifact(entry.key)
            elif entry.state == QUARANTINED:
                trial.error = entry.error
            else:
                unfinished.append(index)

    total = first.total
    gaps = [index for index in range(total) if index not in trials]
    merged = MergedCampaign(root, views, trials, gaps, sorted(unfinished))
    if not partial and not merged.complete:
        raise CoverageError(merged.gaps, merged.unfinished)
    return merged


# -- CSV / CDF rendering ------------------------------------------------


def _csv_cell(value):
    """One deterministic CSV cell (no quoting needed for these fields)."""
    if isinstance(value, float):
        return json.dumps(value)
    return str(value)


def format_csv_row(row, columns):
    return ",".join(_csv_cell(row[column]) for column in columns)


def write_rows_csv(path, merged):
    """Write the full merged row set as CSV (deterministic bytes)."""
    columns = merged.columns
    lines = [",".join(columns)]
    lines.extend(format_csv_row(row, columns) for row in merged.csv_rows())
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def cdf_points(rows, field):
    """``[(value, cumulative_fraction), ...]`` over completed rows."""
    values = sorted(row[field] for row in rows
                    if isinstance(row.get(field), (int, float)))
    n = len(values)
    return [(value, (i + 1) / n) for i, value in enumerate(values)]


def write_cdf_csv(path, merged,
                  fields=("delivery_ratio", "mean_latency")):
    """Write running CDFs of ``fields`` as one long-format CSV."""
    rows = merged.completed_rows()
    lines = ["metric,value,fraction"]
    for field in fields:
        for value, fraction in cdf_points(rows, field):
            lines.append("%s,%s,%s" % (field, _csv_cell(value),
                                       _csv_cell(fraction)))
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def _percentile(points, pct):
    if not points:
        return None
    rank = max(0, min(len(points) - 1,
                      int(round(pct / 100.0 * (len(points) - 1)))))
    return points[rank][0]


def format_cdf_line(merged):
    """One terminal line of running delivery/latency percentiles."""
    rows = merged.completed_rows()
    parts = []
    for label, field in (("delivery", "delivery_ratio"),
                         ("latency", "mean_latency")):
        points = cdf_points(rows, field)
        if not points:
            parts.append("%s --" % label)
            continue
        parts.append("%s " % label + " ".join(
            "p%d=%.3f" % (pct, _percentile(points, pct))
            for pct in _PERCENTILES))
    return "  ".join(parts)


def format_status_line(merged):
    terminal = sum(1 for t in merged.trials.values()
                   if t.ok or t.quarantined)
    extras = ""
    if merged.quarantined:
        extras += "  quarantined %d" % merged.quarantined
    if merged.gaps:
        extras += "  unregistered %d" % len(merged.gaps)
    return "coverage %d/%d (%.0f%%)  rows %d%s  shards %d" % (
        terminal, merged.total, 100.0 * merged.coverage, merged.completed,
        extras, len(merged.views))


# -- artifact collection ------------------------------------------------


def collect_traces(merged, out_dir):
    """Copy every merged trial's trace artifact into ``out_dir``.

    Artifact names are content keys, so collecting from K shards can
    never collide; bytes are copied verbatim (they are already
    deterministic), keeping the merged artifact set byte-identical to an
    unsharded run's trace directory.
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    copied = 0
    for trial in merged.ordered_trials():
        if trial.trace is None:
            continue
        shutil.copyfile(trial.trace, out_dir / trial.trace.name)
        copied += 1
    return copied


def write_merge_output(merged, out_dir):
    """Materialize a merge: table.txt (registered grids), rows.csv, cdf.csv,
    and collected trace artifacts under ``out_dir``.  Repeated merges of
    the same shard state write byte-identical files (idempotence)."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    if merged.grid is not None:
        table_path = out_dir / "table.txt"
        table_path.write_text(merged.render_table() + "\n",
                              encoding="utf-8")
        written["table"] = table_path
    rows_path = out_dir / "rows.csv"
    write_rows_csv(rows_path, merged)
    written["rows"] = rows_path
    cdf_path = out_dir / "cdf.csv"
    write_cdf_csv(cdf_path, merged)
    written["cdf"] = cdf_path
    copied = collect_traces(merged, out_dir / "traces")
    if copied:
        written["traces"] = out_dir / "traces"
    return written


# -- streaming watch ----------------------------------------------------


def _journal_clock(root):
    """A cheap change detector over every shard journal (size+mtime)."""
    stamps = []
    try:
        dirs = shard_dirs(root)
    except AggregateError:
        return ()
    for path in dirs:
        journal = path / MANIFEST_NAME
        try:
            stat = journal.stat()
        except OSError:
            stamps.append((str(journal), -1, -1.0))
            continue
        stamps.append((str(journal), stat.st_size, stat.st_mtime))
    return tuple(stamps)


def watch_campaign(root, stream, interval=2.0, csv_path=None, once=False,
                   poll=None):
    """Stream a campaign's running aggregate as its shard journals grow.

    Each refresh re-merges (``partial`` semantics — watching never
    refuses), prints a coverage + CDF status, and appends rows that newly
    reached a terminal ``done`` state to ``csv_path`` (header first, then
    one line per trial, in completion-observation order — a consumer can
    tail the file while shards are still running).  Returns 0 once the
    campaign is complete; with ``once=True`` a single refresh is rendered
    and the exit code reports completeness (0 complete, 1 not).

    ``poll`` overrides the sleep between refreshes (testing seam).
    """
    root = pathlib.Path(root)
    sleep = interval if poll is None else poll
    seen = set()
    columns = None
    handle = None
    if csv_path is not None:
        path = pathlib.Path(csv_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "w", encoding="utf-8")
    last_clock = None
    try:
        while True:
            clock = _journal_clock(root)
            if clock != last_clock:
                last_clock = clock
                try:
                    merged = merge_campaign(root, partial=True)
                except AggregateError as err:
                    stream.write("watch: %s\n" % err)
                    stream.flush()
                    if once:
                        return 1
                    time.sleep(sleep)
                    continue
                for warning in merged.warnings:
                    stream.write("warning: %s\n" % warning)
                if handle is not None:
                    if columns is None:
                        # The columns follow the grid the journal names,
                        # so the header waits for the first merge.
                        columns = merged.columns
                        handle.write(",".join(columns) + "\n")
                    for row in merged.csv_rows():
                        if row["index"] in seen or \
                                row["state"] not in (DONE, QUARANTINED):
                            continue
                        seen.add(row["index"])
                        handle.write(format_csv_row(row, columns) + "\n")
                    handle.flush()
                stream.write(format_status_line(merged) + "\n")
                stream.write("  " + format_cdf_line(merged) + "\n")
                stream.flush()
                if merged.complete:
                    if merged.grid is not None:
                        stream.write("\n" + merged.render_table() + "\n")
                        stream.flush()
                    return 0
            if once:
                return 1
            time.sleep(sleep)
    finally:
        if handle is not None:
            handle.close()
