"""Transparent gzip trace artifacts: round-trips and determinism."""

import gzip

from repro.__main__ import main
from repro.obs import (
    TraceEvent,
    iter_trace,
    read_trace,
    trace_header,
    write_trace,
)

EVENTS = [
    TraceEvent(0.5, "tx", 0, {"bytes": 64}),
    TraceEvent(1.0, "route", 0, {"dst": 2, "successor": 1}),
    TraceEvent(2.0, "deliver", 2, {"src": 0}),
]


def test_write_trace_gz_roundtrip(tmp_path):
    path = tmp_path / "t.trace.jsonl.gz"
    assert write_trace(path, EVENTS, header=trace_header(seed=7)) == 3
    assert path.read_bytes()[:2] == b"\x1f\x8b"
    header, events = read_trace(path)
    assert header["seed"] == 7
    assert events == EVENTS

    # An empty trace still carries its header.
    empty = tmp_path / "empty.trace.jsonl.gz"
    assert write_trace(empty, [], header=trace_header(seed=1)) == 0
    header, events = read_trace(empty)
    assert header["type"] == "header" and header["seed"] == 1
    assert events == []


def test_gz_and_plain_decompress_identically(tmp_path):
    plain = tmp_path / "t.trace.jsonl"
    zipped = tmp_path / "t.trace.jsonl.gz"
    write_trace(plain, EVENTS, header=trace_header(seed=7))
    write_trace(zipped, EVENTS, header=trace_header(seed=7))
    assert gzip.decompress(zipped.read_bytes()) == plain.read_bytes()


def test_gz_bytes_are_deterministic(tmp_path):
    # gzip normally embeds mtime and the original filename; both are
    # pinned so re-runs stay byte-identical (the trace-smoke property).
    a, b = tmp_path / "a.gz", tmp_path / "b.gz"
    write_trace(a, EVENTS, header=trace_header(seed=7))
    write_trace(b, EVENTS, header=trace_header(seed=7))
    assert a.read_bytes() == b.read_bytes()


def test_iter_trace_sniffs_magic_not_suffix(tmp_path):
    # A gzip trace under a plain name still reads (magic-byte sniff)...
    sneaky = tmp_path / "t.trace.jsonl"
    write_trace(tmp_path / "t.gz", EVENTS, header=trace_header(seed=7))
    sneaky.write_bytes((tmp_path / "t.gz").read_bytes())
    docs = list(iter_trace(sneaky))
    assert docs[0]["seed"] == 7
    assert len(docs) == 4

    # ...and a plain trace under a .gz name too.
    mislabeled = tmp_path / "u.trace.jsonl.gz"
    plain = tmp_path / "u.trace.jsonl"
    write_trace(plain, EVENTS, header=trace_header(seed=7))
    mislabeled.write_bytes(plain.read_bytes())
    assert len(list(iter_trace(mislabeled))) == 4


def test_run_cli_writes_gz_trace(tmp_path, capsys):
    trace = tmp_path / "run.trace.jsonl.gz"
    assert main(["run", "--nodes", "10", "--flows", "2", "--duration", "6",
                 "--seed", "3", "--trace", str(trace)]) == 0
    header, events = read_trace(trace)
    assert header["config"]["num_nodes"] == 10
    assert events


def test_campaign_cli_gzip_artifacts(tmp_path, capsys):
    # Exit code 1 just means the monitor caught violations (AODV/TORA
    # under churn); what this test pins is the artifact format.
    assert main([
        "campaign", "churn", "--trials", "1", "--duration", "6",
        "--trace", str(tmp_path / "traces"),
        "--cache-dir", str(tmp_path / "cache"),
        "--gzip",
    ]) in (0, 1)
    artifacts = sorted((tmp_path / "traces").glob("*.trace.jsonl.gz"))
    assert artifacts
    for artifact in artifacts:
        header, _ = read_trace(artifact)
        assert header["schema"] == 2


def test_trace_cli_reads_gz(tmp_path, capsys):
    trace = tmp_path / "t.trace.jsonl.gz"
    write_trace(trace, EVENTS, header=trace_header(seed=7))
    capsys.readouterr()
    assert main(["trace", "summary", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "3" in out
