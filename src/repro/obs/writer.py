"""JSONL trace output.

File format (JSON Lines): one header object, then one object per event,
all in canonical form (sorted keys, compact separators).  The header
carries the trace schema version, the seed, and optionally the full
serialized :class:`~repro.experiments.scenario.ScenarioConfig` — enough
to re-run the exact trial that produced the trace.  Nothing in the file
depends on wall clocks, process ids, or filesystem paths, so the same
``(config, seed, fault_plan)`` always produces byte-identical bytes —
however the trial was executed (in-process, or on any worker of a
``--jobs N`` pool).

Paths ending in ``.gz`` are gzip-compressed transparently, and stay
byte-identical: compression pins ``mtime=0`` and an empty stored name,
the two fields through which gzip normally leaks wall clock and paths.
"""

import gzip
import io
import json
import os
import tempfile

import repro
from repro.obs.events import SCHEMA_VERSION


def _open_text_for_write(path):
    """A text stream writing (possibly gzip-compressed) bytes to ``path``.

    Deterministic by construction: ``mtime=0`` and ``filename=""`` keep
    gzip's header free of wall clock and filesystem identity, so traced
    trials stay byte-identical whether stored compressed or not.
    """
    if str(path).endswith(".gz"):
        raw = open(path, "wb")
        try:
            zipped = gzip.GzipFile(
                filename="", mode="wb", fileobj=raw, mtime=0,
            )
        except BaseException:
            raw.close()
            raise
        stream = io.TextIOWrapper(zipped, encoding="utf-8", newline="\n")
        # TextIOWrapper.close() closes the GzipFile, which does NOT close
        # the underlying raw file; chain it so callers close one object.
        original_close = stream.close

        def close_all():
            original_close()
            raw.close()

        stream.close = close_all
        return stream
    return open(path, "w", encoding="utf-8", newline="\n")


def trace_header(config=None, seed=None, **extra):
    """The header document for a new trace file."""
    header = {"type": "header", "schema": SCHEMA_VERSION,
              "version": repro.__version__}
    if config is not None:
        header["config"] = config.to_dict()
        header.setdefault("seed", config.seed)
    if seed is not None:
        header["seed"] = seed
    header.update(extra)
    return header


def write_trace(path, events, header=None):
    """Atomically write ``events`` (any iterable of TraceEvents) to ``path``.

    A :class:`~repro.obs.recorder.TraceRecorder` may be passed directly —
    its retained events are written, and its retention outcome
    (``truncated``, ``recorded``) is folded into the header so offline
    replay can tell a complete stream from a capped one.  Paths ending in
    ``.gz`` are gzip-compressed (deterministically; see module doc).  The
    write is temp-file + ``os.replace`` atomic, so a concurrent reader —
    or a campaign worker racing another on a shared artifact directory —
    never observes a torn trace.  Returns the number of events written.
    """
    header = dict(header) if header is not None else trace_header()
    if hasattr(events, "events"):
        recorder = events
        events = recorder.events
        header["truncated"] = bool(getattr(recorder, "truncated", False))
        header["recorded"] = int(
            getattr(recorder, "recorded", len(events))
        )
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    suffix = ".tmp.gz" if str(path).endswith(".gz") else ".tmp"
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=suffix)
    os.close(fd)
    try:
        stream = _open_text_for_write(tmp)
        try:
            stream.write(json.dumps(header, sort_keys=True,
                                    separators=(",", ":")) + "\n")
            count = 0
            for event in events:
                stream.write(event.canonical() + "\n")
                count += 1
        finally:
            stream.close()
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return count
