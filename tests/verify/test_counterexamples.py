"""The shipped counterexample suite: loading, execution, determinism."""

import json
import pathlib

import pytest

from repro.verify import (
    Counterexample,
    CounterexampleError,
    load_counterexample,
    load_suite,
    run_counterexample,
    verdict_from_breakdown,
)


@pytest.fixture(scope="module")
def suite():
    return load_suite()


def test_suite_ships_the_published_interleavings(suite):
    assert set(suite) >= {"ce-aodv-1", "ce-aodv-2", "ce-aodv-3"}
    for ce in suite.values():
        assert ce.source
        assert ce.placements and len(ce.placements) == ce.num_nodes
        assert ce.flows
        assert ce.fault_plan.events
        assert ce.expected


def test_config_pins_everything(suite):
    config = suite["ce-aodv-1"].config("aodv")
    assert config.protocol == "aodv"
    assert config.num_flows == 0          # no random traffic at all
    assert config.invariant_check is True
    assert config.placements is not None
    assert config.flows
    assert config.fault_plan is not None
    # The pinned schedule must serialize (cache + worker dispatch).
    rebuilt = type(config).from_dict(config.to_dict())
    assert rebuilt.placements == config.placements
    assert rebuilt.flows == config.flows


def test_expected_verdict_fallback(suite):
    ce = suite["ce-aodv-1"]
    assert ce.expected_verdict("aodv") == "loop"
    assert ce.expected_verdict("ldr") == "immune"
    assert ce.expected_verdict("dsr") == "immune"


def test_aodv_loops_on_ce1_and_ldr_is_immune(suite):
    """The headline claim: the published attack, executable.

    AODV forms the mutual-successor loop under the reboot +
    unknown-seq-RREQ schedule; LDR under the *identical* placements,
    flows, and fault plan does not (Theorem 4).
    """
    ce = suite["ce-aodv-1"]
    aodv = run_counterexample(ce, "aodv")
    assert aodv.verdict == "loop"
    assert aodv.breakdown.get("loop", 0) >= 1
    assert any("routing loop" in detail for _, _, detail in aodv.violations)
    assert aodv.matches_expected

    ldr = run_counterexample(ce, "ldr")
    assert ldr.verdict == "immune"
    assert ldr.violations == []
    assert ldr.matches_expected


def test_ce2_pins_the_draft_behavior_that_dodges_the_loop(suite):
    """ce-aodv-2's loop is prevented by §6.11 + §6.5; assert the dodge."""
    ce = suite["ce-aodv-2"]
    result = run_counterexample(ce, "aodv")
    assert result.verdict == "immune"
    assert result.matches_expected
    assert "§6.11" in ce.notes["aodv"] or "6.11" in ce.notes["aodv"]


def test_ce3_destination_reboot_is_survivable_for_both(suite):
    ce = suite["ce-aodv-3"]
    for protocol in ("aodv", "ldr"):
        result = run_counterexample(ce, protocol)
        assert result.verdict == "immune", protocol


def test_counterexample_runs_are_deterministic(suite, tmp_path):
    """Same schedule, same seed: same verdict, byte-identical traces."""
    ce = suite["ce-aodv-1"]
    first = run_counterexample(ce, "aodv", trace_path=tmp_path / "a.jsonl")
    second = run_counterexample(ce, "aodv", trace_path=tmp_path / "b.jsonl")
    assert first.verdict == second.verdict
    assert [v[:2] for v in first.violations] == [
        v[:2] for v in second.violations]
    assert (tmp_path / "a.jsonl").read_bytes() == (
        tmp_path / "b.jsonl").read_bytes()


def test_gzip_traces_are_deterministic_too(suite, tmp_path):
    ce = suite["ce-aodv-3"]
    run_counterexample(ce, "ldr", trace_path=tmp_path / "a.jsonl.gz")
    run_counterexample(ce, "ldr", trace_path=tmp_path / "b.jsonl.gz")
    a = (tmp_path / "a.jsonl.gz").read_bytes()
    assert a == (tmp_path / "b.jsonl.gz").read_bytes()
    assert a[:2] == b"\x1f\x8b"  # actually gzip


def test_verdict_from_breakdown_vocabulary():
    assert verdict_from_breakdown({}) == "immune"
    assert verdict_from_breakdown({"ordering": 0}) == "immune"
    assert verdict_from_breakdown({"loop": 2}) == "loop"
    assert verdict_from_breakdown({"seqnum_ownership": 1}) == "flagged"
    assert verdict_from_breakdown({"loop": 1, "ordering": 3}) == "loop"


def test_missing_fields_are_rejected():
    with pytest.raises(CounterexampleError):
        Counterexample({"name": "x"})


def test_unknown_expected_verdict_is_rejected(suite):
    data = json.loads(pathlib.Path(suite["ce-aodv-1"].origin).read_text())
    data["expected"] = {"aodv": "explodes"}
    with pytest.raises(CounterexampleError):
        Counterexample(data)


@pytest.mark.parametrize("field", ["expected", "notes"])
def test_unregistered_protocol_key_is_rejected(suite, field):
    # A verdict or note for a protocol the registry no longer has would
    # pin nothing: no run ever checks it.
    data = json.loads(pathlib.Path(suite["ce-aodv-1"].origin).read_text())
    data[field] = dict(data.get(field, {}), tora="loop")
    with pytest.raises(CounterexampleError, match="tora"):
        Counterexample(data)


def test_malformed_file_raises(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CounterexampleError):
        load_counterexample(bad)


def test_empty_directory_raises(tmp_path):
    with pytest.raises(CounterexampleError):
        load_suite(tmp_path)
