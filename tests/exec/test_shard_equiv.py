"""The fabric's headline invariant, end to end.

A K-shard campaign — with one shard crashed mid-run and resumed — must
merge to the byte-identical table, row CSV, CDF CSV, and trace-artifact
set of the same campaign run unsharded.  The CI ``shard-equiv`` job
replays this with a real SIGKILL across processes; this test pins the
same property in-process using the crash signature a SIGKILL leaves
behind (a journal cut mid-stream) so the suite stays fast and portable.
"""

from repro.exec.aggregate import merge_campaign, write_merge_output
from repro.exec.manifest import (
    MANIFEST_NAME,
    resume_campaign,
    start_campaign,
)
from repro.exec.shard import ShardPlan, shard_dir, start_shard
from repro.experiments.scenario import ScenarioConfig


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
        plain_root, configs, name="equiv",
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
            shard_root, configs, plan, index, name="equiv",
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
