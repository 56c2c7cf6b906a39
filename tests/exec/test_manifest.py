"""The campaign journal: commit semantics, crash tolerance, resume."""

import json

import pytest

from repro.exec.cache import trial_key
from repro.exec.manifest import (
    DONE,
    FAILED,
    QUARANTINED,
    RUNNING,
    CampaignManifest,
    ManifestError,
    campaign_paths,
    resume_campaign,
    start_campaign,
)
from repro.experiments.scenario import ScenarioConfig


def _configs(n=3):
    return [ScenarioConfig(num_nodes=8, num_flows=2, duration=5.0,
                           seed=1 + i) for i in range(n)]


def _fresh(tmp_path, n=3):
    path = tmp_path / "camp" / "manifest.jsonl"
    return CampaignManifest.create(path, _configs(n), name="t"), path


def test_create_registers_every_trial_with_content_keys(tmp_path):
    configs = _configs(3)
    manifest, path = _fresh(tmp_path)
    assert path.is_file()
    assert len(manifest.entries) == 3
    for index, config in enumerate(configs):
        entry = manifest.entries[index]
        assert entry.state == "pending"
        assert entry.attempts == 0
        assert entry.key == trial_key(config)
    # One campaign, one journal: restarting must resume, not overwrite.
    with pytest.raises(FileExistsError):
        CampaignManifest.create(path, configs)


def test_record_state_roundtrips_through_load(tmp_path):
    manifest, path = _fresh(tmp_path)
    manifest.record_state(0, RUNNING, attempt=1, worker=4242)
    manifest.record_state(0, DONE, attempt=1, worker=4242)
    manifest.record_state(1, FAILED, attempt=2,
                          error="Traceback ...\nRuntimeError: boom")
    manifest.record_state(2, QUARANTINED, attempt=3, error="poison")
    manifest.close()
    loaded = CampaignManifest.load(path)
    assert not loaded.torn_tail
    assert loaded.entries[0].state == DONE
    assert loaded.entries[0].worker == 4242
    assert loaded.entries[1].state == FAILED
    assert loaded.entries[1].attempts == 2
    # Only the final traceback line is journaled.
    assert loaded.entries[1].error == "RuntimeError: boom"
    assert loaded.entries[2].state == QUARANTINED
    assert loaded.counts()[DONE] == 1


def test_torn_final_line_is_dropped_not_fatal(tmp_path):
    manifest, path = _fresh(tmp_path)
    manifest.record_state(0, DONE, attempt=1)
    manifest.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"type":"state","index":1,"sta')  # SIGKILL mid-append
    loaded = CampaignManifest.load(path)
    assert loaded.torn_tail
    assert loaded.entries[0].state == DONE
    assert loaded.entries[1].state == "pending"  # torn record re-derives


def test_append_after_torn_tail_repairs_and_survives_reload(tmp_path):
    # Tear the tail, resume with multiple transitions, load again:
    # without the load-time truncation the first append merges onto the
    # partial line (and is silently dropped as a new torn tail), and the
    # second turns the merged line into fatal mid-file corruption.
    manifest, path = _fresh(tmp_path)
    manifest.record_state(0, DONE, attempt=1)
    manifest.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"type":"state","index":1,"sta')  # SIGKILL mid-append
    loaded = CampaignManifest.load(path)
    assert loaded.torn_tail
    loaded.record_state(1, RUNNING, attempt=1)
    loaded.record_state(1, DONE, attempt=1)
    loaded.record_state(2, FAILED, attempt=1, error="boom")
    loaded.close()
    again = CampaignManifest.load(path)
    assert not again.torn_tail  # the torn line was truncated away
    assert again.entries[0].state == DONE
    assert again.entries[1].state == DONE
    assert again.entries[2].state == FAILED


def test_load_truncates_torn_tail_back_to_committed_records(tmp_path):
    manifest, path = _fresh(tmp_path)
    manifest.record_state(0, DONE, attempt=1)
    manifest.close()
    intact = path.read_bytes()
    with open(path, "ab") as fh:
        fh.write(b'{"type":"state","index":1,"sta')
    CampaignManifest.load(path)
    assert path.read_bytes() == intact


def test_append_after_unterminated_final_line_starts_fresh(tmp_path):
    # A crash can commit a record's bytes but not its newline: the line
    # parses on load and must be kept, yet an append must not merge
    # the next record onto it.
    manifest, path = _fresh(tmp_path)
    manifest.record_state(0, DONE, attempt=1)
    manifest.close()
    data = path.read_bytes()
    assert data.endswith(b"\n")
    path.write_bytes(data[:-1])  # strip just the trailing newline
    loaded = CampaignManifest.load(path)
    assert not loaded.torn_tail
    loaded.record_state(1, DONE, attempt=1)
    loaded.close()
    again = CampaignManifest.load(path)
    assert again.entries[0].state == DONE
    assert again.entries[1].state == DONE


def test_record_state_tolerates_empty_error_text(tmp_path):
    manifest, path = _fresh(tmp_path)
    manifest.record_state(0, FAILED, attempt=1, error="")
    manifest.record_state(1, FAILED, attempt=1, error="  \n ")
    manifest.close()
    loaded = CampaignManifest.load(path)
    assert loaded.entries[0].error == "(no error text)"
    assert loaded.entries[1].error == "(no error text)"


def test_mid_file_corruption_is_fatal(tmp_path):
    manifest, path = _fresh(tmp_path)
    manifest.record_state(0, DONE, attempt=1)
    manifest.close()
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:10]  # tear a *registration* record, not the tail
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError):
        CampaignManifest.load(path)


def test_unknown_record_type_is_fatal(tmp_path):
    manifest, path = _fresh(tmp_path)
    manifest.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "mystery"}) + "\n")
        fh.write(json.dumps({"type": "note", "message": "pad"}) + "\n")
    with pytest.raises(ManifestError):
        CampaignManifest.load(path)


def test_running_attempts_are_refunded_on_load(tmp_path):
    manifest, path = _fresh(tmp_path)
    manifest.record_state(0, RUNNING, attempt=1)
    manifest.close()
    loaded = CampaignManifest.load(path)
    # The in-flight attempt died with the campaign: never observed to
    # fail, so the crash must not eat into the retry budget.
    assert loaded.entries[0].attempts == 0
    assert 0 in loaded.outstanding(max_attempts=2)


def test_outstanding_respects_states_and_attempt_budget(tmp_path):
    manifest, path = _fresh(tmp_path, n=4)
    manifest.record_state(0, DONE, attempt=1)
    manifest.record_state(1, QUARANTINED, attempt=2, error="poison")
    manifest.record_state(2, FAILED, attempt=2, error="x")
    manifest.close()
    loaded = CampaignManifest.load(path)
    # done and quarantined are terminal; failed-at-budget stays settled;
    # the untouched pending trial is the only outstanding work.
    assert loaded.outstanding(max_attempts=2) == [3]
    # A wider budget reopens the failed trial.
    assert loaded.outstanding(max_attempts=3) == [2, 3]


def test_notes_are_tolerated_and_ignored_by_reduction(tmp_path):
    manifest, path = _fresh(tmp_path)
    manifest.note("worker pool broke: chaos")
    manifest.record_state(0, DONE, attempt=1)
    manifest.close()
    loaded = CampaignManifest.load(path)
    assert loaded.entries[0].state == DONE


def test_resume_command_names_the_campaign_dir(tmp_path):
    manifest, path = _fresh(tmp_path)
    assert str(path.parent) in manifest.resume_command()
    assert "campaign resume" in manifest.resume_command()


def test_start_campaign_builds_directory_layout(tmp_path):
    root = tmp_path / "camp"
    configs = _configs(2)
    manifest, engine = start_campaign(root, configs, trace=True, jobs=1)
    manifest_path, cache_dir, trace_dir = campaign_paths(root)
    assert manifest_path.is_file()
    assert cache_dir.is_dir()
    assert trace_dir.is_dir()
    assert engine.manifest is manifest
    assert engine.cache.root == cache_dir
    assert engine.trace_dir == trace_dir


def test_resume_after_complete_run_is_byte_identical_and_all_cached(tmp_path):
    root = tmp_path / "camp"
    configs = _configs(2)
    manifest, engine = start_campaign(root, configs)
    first = engine.run(configs)
    manifest.close()
    loaded, second = resume_campaign(root)
    assert [t.row for t in second.trials] == [t.row for t in first.trials]
    assert json.dumps(second.rows(), sort_keys=True) == \
        json.dumps(first.rows(), sort_keys=True)
    assert second.cached == len(configs)  # nothing re-executed
    assert second.coverage == 1.0


def test_resume_executes_only_outstanding_work(tmp_path):
    root = tmp_path / "camp"
    configs = _configs(3)
    manifest, engine = start_campaign(root, configs)
    # Journal one finished trial by hand-running it through the engine,
    # then pretend the campaign died before the rest.
    serial = type(engine)(cache=engine.cache, manifest=manifest).run(configs)
    manifest.close()
    # Wipe one cache entry: its journal state says done, but resume must
    # notice the missing row and re-execute rather than crash.
    victim = serial.trials[1]
    (engine.cache._path(victim.key)).unlink()
    loaded, resumed = resume_campaign(root)
    assert resumed.rows() == serial.rows()
    assert resumed.executed == 1  # exactly the wiped trial re-ran
    assert resumed.cached == 2


def test_engine_rejects_mismatched_config_count(tmp_path):
    root = tmp_path / "camp"
    configs = _configs(3)
    manifest, engine = start_campaign(root, configs)
    with pytest.raises(ValueError):
        engine.run(configs[:2])


def test_schema_1_journal_is_refused_with_one_line(tmp_path, capsys):
    from repro.__main__ import main

    # Each older schema, with the config fields its trial records held
    # that the current ScenarioConfig no longer has.
    older = (
        (1, {"channel_index": "grid", "scheduler": "calendar"}),
        (2, {"gray_zone": 0.0, "loop_check": False}),
    )
    for schema, removed_fields in older:
        root = tmp_path / ("camp%d" % schema)
        manifest, _ = start_campaign(root, _configs(2))
        manifest.close()
        path, _, _ = campaign_paths(root)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        docs[0]["schema"] = schema
        for doc in docs[1:]:
            doc["config"].update(removed_fields)
        path.write_text("".join(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            for doc in docs))
        with pytest.raises(ManifestError, match="schema %d" % schema):
            resume_campaign(root)

        assert main(["campaign", "resume", str(root)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cannot resume %s: " % root)
        assert "schema %d" % schema in lines[0]
