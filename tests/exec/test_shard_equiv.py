"""The fabric's headline invariant, end to end.

A K-shard campaign — with one shard crashed mid-run and resumed — must
merge to the byte-identical table, row CSV, CDF CSV, and trace-artifact
set of the same campaign run unsharded.  The CI ``shard-equiv`` job
replays this with a real SIGKILL across processes; this test pins the
same property in-process using the crash signature a SIGKILL leaves
behind (a journal cut mid-stream) so the suite stays fast and portable.

The ``paper`` grid (Table 1 plus Figs. 2–7) holds to the same invariant,
and its merged render is exactly what ``repro table1`` and ``repro
figure`` print for the same settings.
"""

import shutil

import pytest

from repro.exec.aggregate import merge_campaign, write_merge_output
from repro.exec.manifest import (
    MANIFEST_NAME,
    resume_campaign,
    start_campaign,
)
from repro.exec.shard import ShardPlan, shard_dir, start_shard
from repro.experiments.campaigns import Campaign, run_grid, run_grid_shards
from repro.experiments.figures import FIGURES
from repro.experiments.grids import GRIDS
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.tables import format_table1, table1


def _grid(n=6):
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


def _crash_after_first_done(sdir):
    """Rewind the shard's journal to just after its first ``done`` record
    and drop that trial's cached row — the on-disk state a SIGKILL leaves
    when it lands mid-campaign (later records never happened; the resumed
    run must genuinely re-execute, not just replay the cache)."""
    import json

    journal = sdir / MANIFEST_NAME
    lines = journal.read_bytes().splitlines(keepends=True)
    keys = {}
    cut = None
    done_key = None
    for i, line in enumerate(lines):
        doc = json.loads(line)
        if doc.get("type") == "trial":
            keys[doc["index"]] = doc["key"]
        elif doc.get("type") == "state" and doc["state"] == "done":
            done_key = keys[doc["index"]]
            cut = i + 1
            break
    assert cut is not None and cut < len(lines), \
        "grid too small to cut the journal mid-run"
    journal.write_bytes(b"".join(lines[:cut]))
    victim = sdir / "cache" / done_key[:2] / (done_key + ".json")
    if victim.is_file():
        victim.unlink()
    return len(lines) - cut


def test_crashed_and_resumed_shards_merge_byte_identical(tmp_path):
    labels, configs = _grid(6)
    plan = ShardPlan(3)

    # -- unsharded reference, traces on --------------------------------
    plain_root = tmp_path / "plain"
    manifest, engine = start_campaign(
        plain_root, configs, name="churn",
        meta={"labels": [list(label) for label in labels]}, trace=True)
    engine.run(configs)
    manifest.close()

    # -- sharded run; the busiest shard crashes mid-run ----------------
    shard_root = tmp_path / "sharded"
    sizes = [(len(bucket), index)
             for index, bucket in enumerate(plan.assign(configs))]
    crash_index = max(sizes)[1]  # needs >= 2 trials to crash between
    for index in range(plan.shards):
        manifest, engine, subset = start_shard(
            shard_root, configs, plan, index, name="churn",
            labels=labels, trace=True)
        engine.run([config for _, config in subset])
        manifest.close()

    dropped = _crash_after_first_done(shard_dir(shard_root, crash_index))
    assert dropped > 0

    # The resumed shard re-executes exactly the records the crash ate.
    manifest, resumed = resume_campaign(shard_dir(shard_root, crash_index))
    manifest.close()
    assert not resumed.interrupted
    assert resumed.executed > 0  # real work, not a pure cache replay

    # -- merge both and compare artifact bytes -------------------------
    plain = merge_campaign(plain_root)
    sharded = merge_campaign(shard_root)
    assert plain.complete and sharded.complete

    plain_out = write_merge_output(plain, tmp_path / "out-plain")
    shard_out = write_merge_output(sharded, tmp_path / "out-sharded")
    assert set(plain_out) == set(shard_out) >= {"table", "rows", "cdf",
                                                "traces"}
    for name in ("table", "rows", "cdf"):
        assert plain_out[name].read_bytes() == shard_out[name].read_bytes()

    plain_traces = sorted(p.name for p in plain_out["traces"].iterdir())
    shard_traces = sorted(p.name for p in shard_out["traces"].iterdir())
    assert plain_traces == shard_traces and plain_traces
    for name in plain_traces:
        assert (plain_out["traces"] / name).read_bytes() == \
            (shard_out["traces"] / name).read_bytes()


# -- the paper grid ------------------------------------------------------

#: The paper grid at 50/100 nodes, 4 s runs, one trial: 60 trials.
PAPER = dict(duration=4.0, trials=1)


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """The paper grid run once unsharded and once as 3 shards."""
    root = tmp_path_factory.mktemp("paper")
    campaign = Campaign(journal=root / "plain", jobs=2, **PAPER)
    labels, configs = GRIDS["paper"].build(campaign)
    assert len(configs) == 60
    _, result, manifest = run_grid(campaign, "paper", labels, configs)
    manifest.close()
    assert result.coverage == 1.0
    sharded = Campaign(journal=root / "sharded", jobs=2, **PAPER)
    for index in range(3):
        _, sessions = run_grid_shards(sharded, "paper", labels, configs, 3,
                                      shard_index=index)
        sessions[0][2].close()
    return root, labels, configs


def _merge_out(root, out):
    written = write_merge_output(merge_campaign(root), out)
    return {name: written[name].read_bytes()
            for name in ("table", "rows", "cdf")}


def test_paper_shards_crashed_and_resumed_merge_byte_identical(paper,
                                                               tmp_path):
    root, labels, configs = paper
    sharded = tmp_path / "sharded"
    shutil.copytree(root / "sharded", sharded)
    crash_index = max((len(bucket), index) for index, bucket
                      in enumerate(ShardPlan(3).assign(configs)))[1]
    assert _crash_after_first_done(shard_dir(sharded, crash_index)) > 0

    # Re-running the same grid command resumes the crashed shard.
    campaign = Campaign(journal=sharded, **PAPER)
    _, sessions = run_grid_shards(campaign, "paper", labels, configs, 3,
                                  shard_index=crash_index)
    (_, resumed, manifest), = sessions
    manifest.close()
    assert resumed.executed > 0 and resumed.coverage == 1.0

    plain = _merge_out(root / "plain", tmp_path / "out-plain")
    assert _merge_out(sharded, tmp_path / "out-sharded") == plain
    header = plain["rows"].decode().splitlines()[0]
    assert header.startswith("index,block,nodes,flows,pause,protocol,seed,")


def test_paper_render_is_table1_and_figures(paper, capsys):
    """The merged render equals the table1/figure commands' output at the
    same settings (served from the grid run's cache: same trial keys), and
    ``campaign resume`` prints it too."""
    from repro.__main__ import main

    root, _, _ = paper
    campaign = Campaign(use_cache=True, cache_dir=root / "plain" / "cache",
                        **PAPER)
    blocks = [format_table1(table1(flows, campaign=campaign), flows)
              for flows in (10, 30)]
    blocks += [FIGURES[name].render(FIGURES[name].run(campaign))
               for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")]
    expected = "\n\n".join(blocks)
    assert merge_campaign(root / "plain").render_table() == expected

    assert main(["campaign", "resume", str(root / "plain")]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_paper_partial_merge_prints_dashes_for_empty_cells(paper, tmp_path,
                                                           capsys):
    from repro.__main__ import main

    root, labels, configs = paper
    partial = tmp_path / "partial"
    shutil.copytree(root / "sharded", partial)
    missing = 1
    shutil.rmtree(shard_dir(partial, missing))
    lost = {index for index, _ in ShardPlan(3).assign(configs)[missing]}
    assert 0 < len(lost) < len(configs)

    assert main(["campaign", "merge", str(partial)]) == 4
    capsys.readouterr()
    assert main(["campaign", "merge", str(partial), "--partial"]) == 0
    captured = capsys.readouterr()
    assert "NOT a certified" in captured.err
    blocks = captured.out.rstrip("\n").split("\n\n")
    assert len(blocks) == 2 + len(FIGURES)

    # Table 1: a protocol row pools six trials (2 N x 3 pauses).
    for flows, block in zip((10, 30), blocks):
        rows = {line.split()[0]: line.split()
                for line in block.splitlines()[3:]}
        for protocol in ("ldr", "aodv", "dsr", "olsr"):
            cell = [index for index, label in enumerate(labels)
                    if label[0] == "table1" and label[2] == flows
                    and label[4] == protocol]
            done = len([index for index in cell if index not in lost])
            row = rows[protocol.upper()]
            assert row[-1] == "%d/%d" % (done, len(cell))
            if done == 0:
                assert row[1:-1] == ["--"] * 6
            else:
                assert "--" not in row

    # Figures: one trial per point, so a point is empty iff it was lost.
    for figure, block in zip(FIGURES.values(), blocks[2:]):
        printed = {}
        for line in block.splitlines()[2:]:
            if line.startswith("  series: "):
                series = line[len("  series: "):]
            else:
                pause, value = line.split(" | ")
                printed[(series, int(pause))] = value
        expected = {figure.cell(tuple(label)): index in lost
                    for index, label in enumerate(labels)
                    if figure.cell(tuple(label)) is not None}
        assert set(printed) == set(expected)
        for point, empty in expected.items():
            assert (printed[point] == "--") == empty, (figure.name, point)
