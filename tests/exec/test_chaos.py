"""The chaos harness: injector pieces fast, the full self-test slow."""

import pathlib
import random
import time

import pytest

from repro.exec import chaos
from repro.exec.cache import ResultCache
from repro.exec.manifest import CampaignManifest, campaign_paths, start_campaign
from repro.experiments.scenario import ScenarioConfig, ConfigSerializationError


def test_chaos_grid_shapes_and_poison():
    configs = chaos.chaos_grid(trials=2)
    assert len(configs) == 5  # 2 protocols x 2 seeds + poison
    poison = configs[-1]
    healthy = configs[:-1]
    assert all(c.duration <= 10.0 for c in healthy)
    assert poison.duration > 100.0 and poison.num_nodes > 100
    # Poison must be journal-able: data-driven, serializable, keyed.
    try:
        poison.to_dict()
    except ConfigSerializationError:  # pragma: no cover
        raise AssertionError("poison config must serialize")
    assert [c.to_dict() for c in chaos.chaos_grid(trials=2, poison=False)] \
        == [c.to_dict() for c in healthy]


def test_truncate_journal_tail_respects_floor(tmp_path):
    configs = [ScenarioConfig(num_nodes=8, num_flows=2, duration=5.0,
                              seed=s) for s in (1, 2)]
    path = tmp_path / "manifest.jsonl"
    manifest = CampaignManifest.create(path, configs)
    floor = path.stat().st_size
    rng = random.Random(3)
    # Nothing after the floor yet: nothing to chop.
    assert chaos.truncate_journal_tail(path, floor, rng) == 0
    manifest.record_state(0, "done", attempt=1)
    manifest.record_state(1, "done", attempt=1)
    manifest.close()
    size = path.stat().st_size
    chopped = chaos.truncate_journal_tail(path, floor, rng)
    assert 1 <= chopped <= min(80, size - floor)
    assert path.stat().st_size >= floor
    # Whatever got torn, the journal still loads (torn-tail tolerance).
    CampaignManifest.load(path)


def test_corrupt_cache_entry_breaks_exactly_one_row(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put("ab" * 32, {"x": 1})
    cache.put("cd" * 32, {"x": 2})
    victim = chaos.corrupt_cache_entry(cache.root, random.Random(1))
    assert victim is not None
    rows = [cache.lookup("ab" * 32), cache.lookup("cd" * 32)]
    broken = [note for row, note in rows if note]
    intact = [row for row, note in rows if row is not None]
    assert len(broken) == 1 and len(intact) == 1
    assert chaos.corrupt_cache_entry(tmp_path / "empty",
                                     random.Random(1)) is None


def test_corrupt_trace_artifact_tears_one_file(tmp_path):
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    artifact = trace_dir / ("ab" * 32 + ".trace.jsonl")
    artifact.write_text('{"type": "header", "schema": 2}\n' + "x" * 100)
    before = artifact.stat().st_size
    victim = chaos.corrupt_trace_artifact(trace_dir, random.Random(1))
    assert victim == artifact
    assert artifact.stat().st_size < before
    assert chaos.corrupt_trace_artifact(tmp_path / "none",
                                        random.Random(1)) is None


def test_snapshot_separates_rows_traces_quarantine(tmp_path):
    configs = [ScenarioConfig(num_nodes=8, num_flows=2, duration=5.0,
                              seed=s) for s in (1, 2)]
    root = tmp_path / "camp"
    manifest, engine = start_campaign(root, configs, trace=True)
    result = engine.run(configs)
    manifest.close()
    _, _, trace_dir = campaign_paths(root)
    rows, traces, quarantined = chaos._snapshot(result, trace_dir)
    assert sorted(rows) == [0, 1]
    assert len(traces) == 2
    assert quarantined == set()


def _running_with(text):
    """Pids of live processes whose command line contains ``text``."""
    pids = []
    for proc in pathlib.Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            cmdline = (proc / "cmdline").read_bytes()  # empty for zombies
        except OSError:
            continue
        if text.encode() in cmdline:
            pids.append(int(proc.name))
    return pids


@pytest.mark.slow
def test_full_chaos_run_is_byte_identical(tmp_path, capsys):
    # The whole gauntlet: SIGKILL a worker and the driver, truncate the
    # journal, corrupt cache + trace bytes, resume, compare everything.
    code = chaos.run_chaos(tmp_path / "chaos", jobs=2, seed=7,
                           trials=1, duration=6.0, timeout=8.0)
    out = capsys.readouterr().out
    assert code == 0, out
    assert "chaos: OK" in out
    assert "quarantined" in out
    # The killed driver ran `repro campaign resume <tmp_path>/...`, and its
    # forked pool workers share that command line: none may outlive the
    # harness.
    deadline = time.monotonic() + 5.0
    while _running_with(str(tmp_path)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _running_with(str(tmp_path)) == []
