"""Aggregator: merge certification, identity, and the ugly edge cases."""

import io
import json
import shutil

import pytest

from repro.exec.aggregate import (
    AggregateError,
    CoverageError,
    format_csv_row,
    merge_campaign,
    watch_campaign,
    write_merge_output,
)
from repro.exec.cache import ResultCache
from repro.exec.manifest import MANIFEST_NAME, start_campaign
from repro.exec.shard import ShardPlan, shard_dir, start_shard
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.report import ROW_FIELDS


def _grid(n=6):
    """A tiny labelled grid shaped like the churn campaign's."""
    labels = []
    configs = []
    for i in range(n):
        fault = "baseline" if i % 2 == 0 else "crash"
        protocol = "ldr" if i % 3 else "aodv"
        labels.append((fault, protocol))
        configs.append(ScenarioConfig(num_nodes=8, num_flows=2,
                                      duration=5.0, seed=1 + i,
                                      protocol=protocol))
    return labels, configs


def _run_shards(root, configs, plan, labels=None, indices=None,
                name="churn"):
    for index in (range(plan.shards) if indices is None else indices):
        manifest, engine, subset = start_shard(
            root, configs, plan, index, name=name, labels=labels)
        engine.run([config for _, config in subset])
        manifest.close()


def _run_plain(root, configs, labels, name="churn"):
    meta = {"labels": [list(label) for label in labels]}
    manifest, engine = start_campaign(root, configs, name=name, meta=meta)
    result = engine.run(configs)
    manifest.close()
    return result


# -- identity: the tentpole invariant ----------------------------------


def test_sharded_merge_is_byte_identical_to_unsharded(tmp_path):
    labels, configs = _grid(6)
    _run_plain(tmp_path / "plain", configs, labels)
    _run_shards(tmp_path / "sharded", configs, ShardPlan(2),
                labels=labels)

    plain = merge_campaign(tmp_path / "plain")
    sharded = merge_campaign(tmp_path / "sharded")
    assert sharded.complete and plain.complete
    assert sharded.completed_rows() == plain.completed_rows()
    assert sharded.render_table() == plain.render_table()
    assert sharded.columns == plain.columns
    assert [format_csv_row(r, sharded.columns) for r in sharded.csv_rows()] \
        == [format_csv_row(r, plain.columns) for r in plain.csv_rows()]


def test_three_shard_merge_is_complete(tmp_path):
    labels, configs = _grid(5)
    _run_shards(tmp_path, configs, ShardPlan(3), labels=labels)
    merged = merge_campaign(tmp_path)
    assert merged.complete
    assert merged.completed == 5
    assert [t.index for t in merged.ordered_trials()] == list(range(5))


def test_merge_output_is_idempotent(tmp_path):
    labels, configs = _grid(4)
    _run_shards(tmp_path / "camp", configs, ShardPlan(2), labels=labels)
    merged = merge_campaign(tmp_path / "camp")
    first = write_merge_output(merged, tmp_path / "out")
    again = write_merge_output(merge_campaign(tmp_path / "camp"),
                               tmp_path / "out2")
    assert set(first) == set(again)
    for name in first:
        a, b = first[name], again[name]
        if a.is_file():
            assert a.read_bytes() == b.read_bytes()
        else:  # traces/ directory
            assert sorted(p.name for p in a.iterdir()) == \
                sorted(p.name for p in b.iterdir())


def test_rows_csv_carries_every_scalar_row_field(tmp_path):
    labels, configs = _grid(4)
    _run_plain(tmp_path / "camp", configs, labels)
    merged = merge_campaign(tmp_path / "camp")
    out = write_merge_output(merged, tmp_path / "out")
    header, *lines = out["rows"].read_text().splitlines()
    columns = header.split(",")
    assert columns[-len(ROW_FIELDS):] == list(ROW_FIELDS)
    assert len(lines) == len(configs)
    cache = ResultCache(tmp_path / "camp" / "cache")
    for line in lines:
        cells = dict(zip(columns, line.split(",")))
        assert cells["state"] == "done"
        row = cache.get(cells["key"])
        assert {field: json.loads(cells[field]) for field in ROW_FIELDS} \
            == {field: row[field] for field in ROW_FIELDS}


# -- certification: gaps, unfinished, overlap --------------------------


def test_missing_shard_is_a_coverage_gap(tmp_path):
    labels, configs = _grid(6)
    _run_shards(tmp_path, configs, ShardPlan(2), labels=labels,
                indices=[0])
    with pytest.raises(CoverageError) as err:
        merge_campaign(tmp_path)
    assert err.value.gaps  # the other shard's global indices
    assert not err.value.unfinished

    merged = merge_campaign(tmp_path, partial=True)
    assert not merged.complete
    assert merged.coverage < 1.0
    # The partial table renders a coverage column and placeholder cells.
    table = merged.render_table()
    assert "cov" in table.splitlines()[0]
    assert "--" in table


def test_registered_but_unrun_trials_block_certification(tmp_path):
    labels, configs = _grid(4)
    plan = ShardPlan(2)
    _run_shards(tmp_path, configs, plan, labels=labels, indices=[0])
    # Shard 1 started (trials registered in its journal) but never ran.
    manifest, _, _ = start_shard(tmp_path, configs, plan, 1, name="churn",
                                 labels=labels)
    manifest.close()
    with pytest.raises(CoverageError) as err:
        merge_campaign(tmp_path)
    assert err.value.unfinished and not err.value.gaps
    merged = merge_campaign(tmp_path, partial=True)
    assert merged.unfinished


def test_overlapping_shards_refuse_to_merge(tmp_path):
    labels, configs = _grid(4)
    _run_shards(tmp_path, configs, ShardPlan(2), labels=labels)
    # Clone shard 0 over shard 1: two journals now claim the same
    # global indices — a mis-configured fleet, not a partial one.
    shutil.rmtree(shard_dir(tmp_path, 1))
    shutil.copytree(shard_dir(tmp_path, 0), shard_dir(tmp_path, 1))
    with pytest.raises(AggregateError, match="two shards"):
        merge_campaign(tmp_path, partial=True)


def test_shards_from_different_grids_refuse_to_merge(tmp_path):
    labels_a, configs_a = _grid(4)
    _, configs_b = _grid(5)
    _run_shards(tmp_path, configs_a, ShardPlan(2), labels=labels_a,
                indices=[0])
    with pytest.raises(AggregateError):
        # Same root, different grid: fingerprints cannot agree.
        _run_shards(tmp_path, configs_b, ShardPlan(2), indices=[1])
        merge_campaign(tmp_path, partial=True)


def test_empty_root_is_an_error(tmp_path):
    with pytest.raises(AggregateError):
        merge_campaign(tmp_path)


# -- tolerance: torn tails, zero-trial shards, lost rows ----------------


def test_torn_shard_journal_merges_with_a_warning(tmp_path):
    labels, configs = _grid(4)
    _run_shards(tmp_path, configs, ShardPlan(2), labels=labels)
    journal = shard_dir(tmp_path, 0) / MANIFEST_NAME
    with open(journal, "ab") as handle:
        handle.write(b'{"torn mid-append')
    merged = merge_campaign(tmp_path)
    assert merged.complete  # the torn record described no finished work
    assert any("torn" in warning for warning in merged.warnings)


def test_more_shards_than_trials_merges_clean(tmp_path):
    """K > N leaves some shards with zero trials; they still count."""
    labels, configs = _grid(3)
    plan = ShardPlan(5)
    assert any(not bucket for bucket in plan.assign(configs))
    _run_shards(tmp_path, configs, plan, labels=labels)
    merged = merge_campaign(tmp_path)
    assert merged.complete
    assert merged.completed == 3
    assert len(merged.views) == 5


def test_lost_cached_row_demotes_to_unfinished(tmp_path):
    labels, configs = _grid(3)
    _run_shards(tmp_path, configs, ShardPlan(1), labels=labels)
    cache_dir = shard_dir(tmp_path, 0) / "cache"
    victim = sorted(cache_dir.glob("??/*.json"))[0]
    victim.unlink()
    with pytest.raises(CoverageError):
        merge_campaign(tmp_path)
    merged = merge_campaign(tmp_path, partial=True)
    assert len(merged.unfinished) == 1
    assert merged.completed == 2
    assert any("missing or corrupt" in w for w in merged.warnings)


def test_plain_campaign_root_is_an_implicit_single_shard(tmp_path):
    labels, configs = _grid(3)
    result = _run_plain(tmp_path, configs, labels)
    merged = merge_campaign(tmp_path)
    assert merged.complete
    assert merged.completed_rows() == [t.row for t in result.trials]
    assert merged.views[0].shard is None


# -- streaming watch ----------------------------------------------------


def test_watch_once_reports_completeness(tmp_path):
    labels, configs = _grid(3)
    plan = ShardPlan(2)
    _run_shards(tmp_path, configs, plan, labels=labels, indices=[0])
    out = io.StringIO()
    assert watch_campaign(tmp_path, out, once=True) == 1
    assert "coverage" in out.getvalue()

    _run_shards(tmp_path, configs, plan, labels=labels, indices=[1])
    out = io.StringIO()
    csv_path = tmp_path / "stream.csv"
    assert watch_campaign(tmp_path, out, once=True,
                          csv_path=csv_path) == 0
    assert "delivery" in out.getvalue()
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("index,fault,protocol")
    assert len(lines) == 1 + 3  # header + every terminal trial


def test_watch_streams_rows_as_shards_land(tmp_path):
    """The appended CSV grows monotonically and never repeats a trial."""
    labels, configs = _grid(4)
    plan = ShardPlan(2)
    csv_path = tmp_path / "stream.csv"

    _run_shards(tmp_path / "camp", configs, plan, labels=labels,
                indices=[0])
    out = io.StringIO()
    watch_campaign(tmp_path / "camp", out, once=True, csv_path=csv_path)
    first = csv_path.read_text().splitlines()

    _run_shards(tmp_path / "camp", configs, plan, labels=labels,
                indices=[1])
    out = io.StringIO()
    watch_campaign(tmp_path / "camp", out, once=True, csv_path=csv_path)
    second = csv_path.read_text().splitlines()

    assert len(second) == 1 + 4
    indices = [line.split(",")[0] for line in second[1:]]
    assert len(indices) == len(set(indices))
    # Re-watching from scratch still saw shard 0's rows.
    assert len(first) >= 2


# -- CLI ----------------------------------------------------------------


def test_cli_merge_exit_codes(tmp_path, capsys):
    from repro.__main__ import main

    labels, configs = _grid(4)
    plan = ShardPlan(2)
    root = tmp_path / "camp"
    _run_shards(root, configs, plan, labels=labels, indices=[0],
                name="churn")

    assert main(["campaign", "merge", str(root)]) == 4  # gaps, no --partial
    err = capsys.readouterr().err
    assert "--partial" in err

    assert main(["campaign", "merge", str(root), "--partial"]) == 0
    captured = capsys.readouterr()
    assert "cov" in captured.out.splitlines()[0]
    assert "NOT a certified" in captured.err

    _run_shards(root, configs, plan, labels=labels, indices=[1],
                name="churn")
    out_dir = tmp_path / "out"
    assert main(["campaign", "merge", str(root),
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "table.txt").is_file()
    assert (out_dir / "rows.csv").is_file()
    assert (out_dir / "cdf.csv").is_file()

    assert main(["campaign", "merge", str(tmp_path / "nowhere")]) == 2
    assert main(["campaign", "merge"]) == 2
    capsys.readouterr()


def test_cli_merge_refuses_schema_1_shard(tmp_path, capsys):
    from repro.__main__ import main

    labels, configs = _grid(3)
    _run_shards(tmp_path, configs, ShardPlan(2), labels=labels,
                name="churn")
    # Rewrite shard 0 as a schema-1 shard wrote it: journal schema 1, and
    # shard meta schema 1 with the partition mode field.
    journal = shard_dir(tmp_path, 0) / MANIFEST_NAME
    docs = [json.loads(line) for line in journal.read_text().splitlines()]
    docs[0]["schema"] = 1
    docs[0]["meta"]["shard"].update(schema=1, mode="hash")
    journal.write_text("".join(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        for doc in docs))
    assert main(["campaign", "merge", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot merge %s: " % tmp_path)
    assert "schema 1" in err


@pytest.mark.parametrize("labels, reason", [
    ([["baseline", "ldr"]], "cover 1 trial(s) but the campaign registers 2"),
    ([["baseline", "ldr"], ["crash"]], "has 2 coordinate(s)"),
])
def test_cli_merge_and_watch_refuse_malformed_labels(tmp_path, capsys,
                                                     labels, reason):
    """Labels that do not name every trial of a registered grid are a
    merge error, reported on one line, never a traceback."""
    from repro.__main__ import main

    _, configs = _grid(2)
    manifest, engine = start_campaign(tmp_path, configs, name="churn",
                                      meta={"labels": labels})
    engine.run(configs)
    manifest.close()

    assert main(["campaign", "merge", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot merge %s: " % tmp_path) and reason in err
    assert main(["campaign", "watch", str(tmp_path), "--once"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("watch: ") and reason in out


def test_unregistered_grid_merges_rows_without_a_table(tmp_path):
    labels, configs = _grid(2)
    _run_plain(tmp_path, configs, labels, name="other")
    merged = merge_campaign(tmp_path)
    assert merged.grid is None
    written = write_merge_output(merged, tmp_path / "out")
    assert "table" not in written
    rows = written["rows"].read_text().splitlines()
    assert rows[0].startswith("index,protocol,seed,key,state,")
    assert rows[1].startswith("0,aodv,1,")


def test_cli_watch_once(tmp_path, capsys):
    from repro.__main__ import main

    labels, configs = _grid(3)
    _run_shards(tmp_path, configs, ShardPlan(2), labels=labels,
                name="churn")
    assert main(["campaign", "watch", str(tmp_path), "--once"]) == 0
    assert "coverage" in capsys.readouterr().out


def test_cli_sharded_churn_usage_errors(tmp_path, capsys):
    from repro.__main__ import main

    # --shards without --journal
    assert main(["campaign", "churn", "--shards", "2",
                 "--shard-index", "0"]) == 2
    assert "--journal" in capsys.readouterr().err
    # neither (or both of) --shard-index / --claim
    assert main(["campaign", "churn", "--journal", str(tmp_path),
                 "--shards", "2"]) == 2
    assert "exactly one" in capsys.readouterr().err
    # index outside the plan
    assert main(["campaign", "churn", "--journal", str(tmp_path),
                 "--shards", "2", "--shard-index", "5"]) == 2
    assert "outside" in capsys.readouterr().err


def test_cli_grid_refuses_a_journal_of_another_campaign(tmp_path, capsys):
    """``campaign NAME --journal DIR`` resumes only a journal of NAME; any
    other campaign's journal is refused on one line, not rendered."""
    from repro.__main__ import main

    labels, configs = _grid(2)
    _run_plain(tmp_path / "plain", configs, labels, name="other")
    _run_shards(tmp_path / "sharded", configs, ShardPlan(2), labels=labels,
                name="other")
    args = ["--duration", "6", "--trials", "1"]
    for root, extra in ((tmp_path / "plain", []),
                        (tmp_path / "sharded",
                         ["--shards", "2", "--shard-index", "0"])):
        assert main(["campaign", "churn", "--journal", str(root)]
                    + args + extra) == 2
        captured = capsys.readouterr()
        assert not captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert "'other'" in err[0] and "'churn'" in err[0]
        assert "python -m repro campaign resume %s" % root in err[0]

    # The same grid's journal still resumes (here: all cached).
    _run_plain(tmp_path / "mine", configs, labels)
    assert main(["campaign", "churn", "--journal", str(tmp_path / "mine")]
                + args) == 0
    assert "baseline" in capsys.readouterr().out


def test_cli_sharded_churn_runs_and_merges(tmp_path, capsys):
    """claim-mode drains every shard in one process; merge certifies."""
    from repro.__main__ import main

    root = tmp_path / "camp"
    args = ["--duration", "4", "--trials", "1", "--journal", str(root)]
    assert main(["campaign", "churn"] + args
                + ["--shards", "2", "--claim"]) == 0
    err = capsys.readouterr().err
    assert "merge when all shards are done" in err

    assert main(["campaign", "merge", str(root)]) == 0
    captured = capsys.readouterr()
    assert "coverage 15/15" in captured.err
    assert "baseline" in captured.out  # the rendered churn table
