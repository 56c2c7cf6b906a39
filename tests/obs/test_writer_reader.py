"""Round-trip and error-handling tests for JSONL trace files."""

import json

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    TraceError,
    TraceEvent,
    iter_trace,
    read_trace,
    trace_header,
    write_trace,
)


def _events():
    return [
        TraceEvent(1.0, "tx", 3, {"packet": "rreq", "dst": "bcast"}),
        TraceEvent(1.5, "route", 2, {"dst": 7, "metric": [[0.0, 1], 2, 3]}),
        TraceEvent(2.0, "deliver", 7, {"src": 3, "dst": 7, "flow": 0}),
    ]


def test_write_then_read_round_trips(tmp_path):
    path = tmp_path / "t.jsonl"
    count = write_trace(path, _events(), header=trace_header(seed=9))
    assert count == 3
    header, events = read_trace(path)
    assert header["schema"] == SCHEMA_VERSION
    assert header["seed"] == 9
    assert events == _events()


def test_header_line_is_first_and_canonical(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace(path, _events())
    first = path.read_text().splitlines()[0]
    doc = json.loads(first)
    assert doc["type"] == "header"
    assert doc["schema"] == SCHEMA_VERSION
    # canonical: compact separators, sorted keys
    assert first == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_writer_flushes_header_for_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_trace(path, []) == 0
    # one JSON document: the header alone
    assert json.loads(path.read_text())["type"] == "header"


def test_empty_trace_file_round_trips(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_trace(path, []) == 0
    header, events = read_trace(path)
    assert header["type"] == "header"
    assert events == []


def test_write_trace_accepts_a_recorder(tmp_path):
    class FakeRecorder:
        events = _events()

    path = tmp_path / "r.jsonl"
    assert write_trace(path, FakeRecorder()) == 3
    _, events = read_trace(path)
    assert events == _events()


def test_write_trace_replaces_existing_file(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace(path, _events())
    write_trace(path, _events()[:1])
    _, events = read_trace(path)
    assert len(events) == 1


def test_failed_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace(path, _events())
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write_trace(path, [object()])  # not a TraceEvent
    assert path.read_bytes() == before  # original intact
    assert list(tmp_path.glob("*.tmp")) == []


def test_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace(path, _events())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n\n")
    _, events = read_trace(path)
    assert len(events) == 3


def test_empty_file_is_a_trace_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("")
    with pytest.raises(TraceError):
        list(iter_trace(path))


def test_missing_header_is_a_trace_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1.0, "kind": "tx", "node": 1, "data": {}}\n')
    with pytest.raises(TraceError):
        list(iter_trace(path))


def test_unknown_schema_is_a_trace_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "header", "schema": %d}\n'
                    % (SCHEMA_VERSION + 1))
    with pytest.raises(TraceError):
        list(iter_trace(path))


def test_corrupt_event_line_is_a_trace_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_trace(path, _events())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{not json\n")
    with pytest.raises(TraceError):
        list(iter_trace(path))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        list(iter_trace(tmp_path / "nope.jsonl"))
