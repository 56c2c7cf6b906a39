"""The run-set comparison: bounds, spreads and exact identities."""

import json

from benchmarks.perf import compare, report

SPEC = report.load_spec()


def write_run(directory, wall, rows="abc", correct=True):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    metrics["wall_s"]["value"] = wall
    doc = {"workloads": {"table1": {
        "correct": correct, "problems": [], "metrics": metrics,
        "identity": {"rows_sha256": rows, "delivery_ratio": 0.9}}}}
    directory.mkdir()
    (directory / "results.json").write_text(json.dumps(doc))
    return str(directory)


def test_runs_within_their_bounds_agree(tmp_path, capsys):
    dirs = [write_run(tmp_path / "a", 10.0), write_run(tmp_path / "b", 10.2)]
    assert compare.run(dirs) == 0
    assert "every pair within its bound" in capsys.readouterr().out


def test_a_pair_outside_the_bound_is_flagged_either_way(tmp_path, capsys):
    dirs = [write_run(tmp_path / "a", 10.0), write_run(tmp_path / "b", 7.0)]
    assert compare.run(dirs) == 1
    out = capsys.readouterr().out
    assert "FLAG table1 wall_s: %s is" % dirs[0] in out
    assert "unresolved" in out


def test_identities_must_match_exactly(tmp_path, capsys):
    dirs = [write_run(tmp_path / "a", 10.0),
            write_run(tmp_path / "b", 10.0, rows="abd")]
    assert compare.run(dirs) == 1
    assert "identity rows_sha256 differs" in capsys.readouterr().out


def test_a_failed_run_is_flagged(tmp_path):
    dirs = [write_run(tmp_path / "a", 10.0),
            write_run(tmp_path / "b", 10.0, correct=False)]
    assert compare.run(dirs) == 1
