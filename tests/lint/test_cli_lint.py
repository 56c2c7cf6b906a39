"""``python -m repro lint`` end to end (the acceptance-criteria paths)."""

import json

import pytest

from repro.__main__ import main


def _fixture_tree(tmp_path):
    bad = tmp_path / "protocols" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import random\n\n\ndef jitter():\n    return random.random()\n",
        encoding="utf-8",
    )
    return tmp_path


def test_lint_fails_on_direct_random_in_protocols(tmp_path, capsys):
    tree = _fixture_tree(tmp_path)
    assert main(["lint", str(tree)]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out
    assert "bad.py" in out


def test_lint_passes_on_shipped_tree(capsys):
    assert main(["lint"]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_json_format(tmp_path, capsys):
    tree = _fixture_tree(tmp_path)
    assert main(["lint", "--format", "json", str(tree)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload and payload[0]["rule"] == "RL001"
    assert payload[0]["line"] == 1


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
                    "RL101", "RL102", "RL103"):
        assert rule_id in out


def test_lint_select_subset(tmp_path, capsys):
    tree = _fixture_tree(tmp_path)
    # Only the conformance family selected: the random import is ignored.
    assert main(["lint", "--select", "RL103", str(tree)]) == 0
    capsys.readouterr()


def test_lint_select_unknown_rule_is_usage_error(tmp_path):
    assert main(["lint", "--select", "RL999", str(tmp_path)]) == 2


def _program_fixture_tree(tmp_path):
    """A tree whose only defect needs the whole-program stage to see."""
    bad = tmp_path / "protocols" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "class Proto:\n"
        "    def jitter(self):\n"
        "        return self.rng.stream('mobility').random()\n",
        encoding="utf-8",
    )
    return tmp_path


def test_lint_stage_split(tmp_path, capsys):
    tree = _program_fixture_tree(tmp_path)
    # The cross-layer stream grab is invisible to the per-file tier...
    assert main(["lint", "--stage", "syntactic", str(tree)]) == 0
    capsys.readouterr()
    # ...and caught by the whole-program tier.
    assert main(["lint", "--stage", "program", str(tree)]) == 1
    assert "RL201" in capsys.readouterr().out


def test_lint_sarif_format(tmp_path, capsys):
    tree = _fixture_tree(tmp_path)
    assert main(["lint", "--format", "sarif", str(tree)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    results = run["results"]
    assert results and results[0]["ruleId"] == "RL001"
    location = results[0]["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] == 1


def test_lint_markdown_format(tmp_path, capsys):
    tree = _fixture_tree(tmp_path)
    assert main(["lint", "--format", "md", str(tree)]) == 1
    out = capsys.readouterr().out
    assert "| RL001 |" in out or "RL001" in out


def test_lint_out_writes_report_file(tmp_path, capsys):
    tree = _fixture_tree(tmp_path)
    report = tmp_path / "report.sarif"
    assert main(["lint", "--format", "sarif", "--out", str(report),
                 str(tree)]) == 1
    capsys.readouterr()
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["runs"][0]["results"]


def test_lint_list_rules_markdown_table(capsys):
    assert main(["lint", "--list-rules", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("|")
    for rule_id in ("RL201", "RL301", "RL401"):
        assert rule_id in out


@pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
def test_same_named_files_outside_root_stay_separate(tmp_path, capsys, order):
    # Both files sit outside the lint root and share the name util.py;
    # each must be analysed as its own module, whatever the argument order.
    clock = tmp_path / "a" / "util.py"
    clock.parent.mkdir()
    clock.write_text(
        "from time import time as now\n\n\ndef stamp():\n    return now()\n",
        encoding="utf-8",
    )
    plain = tmp_path / "b" / "util.py"
    plain.parent.mkdir()
    plain.write_text("def helper():\n    return 1\n", encoding="utf-8")
    files = {"a": clock, "b": plain}
    assert main(["lint", "--format", "json"]
                + [str(files[name]) for name in order]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(f["rule"], f["path"]) for f in payload] == [("RL002", str(clock))]
