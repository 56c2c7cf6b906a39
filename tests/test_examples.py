"""Smoke tests: the example scripts must run end to end.

Only the quick examples run in the suite (the shootout and paper-table
generators take minutes); every ``examples/*.py`` is at least compiled,
so a new example cannot go unchecked and a deleted one needs no edit here.
"""

import pathlib
import runpy
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def test_figure1_walkthrough_runs(capsys):
    runpy.run_path(str(EXAMPLES / "figure1_walkthrough.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "Phase 1" in out
    assert "Matches the paper" in out


def test_model_checking_runs(capsys):
    runpy.run_path(str(EXAMPLES / "model_checking.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "loop-free" in out
    assert "LOOP FOUND" in out


@pytest.mark.parametrize(
    "script", sorted(path.name for path in EXAMPLES.glob("*.py")))
def test_examples_compile(script):
    source = (EXAMPLES / script).read_text()
    compile(source, script, "exec")


def test_quickstart_subprocess_smoke():
    """Run the cheapest full example as a real subprocess."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "figure1_walkthrough.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "delivered at T: True" in result.stdout
