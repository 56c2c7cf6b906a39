"""The lint selftest: exact finding set over the committed specimen tree.

This is the gate that keeps the *rules themselves* honest.  The src-tree
test proves the engine is quiet where it should be; this one proves it
is loud where it must be — every rule family fires on its known-bad
specimen at the pinned (rule, file, line), and the known-good twins
contribute nothing.  A rule silently losing its signal (the failure mode
of analysis refactors) shows up here as a missing tuple, and
over-firing shows up as an extra one.  CI runs this file as the
dedicated ``lint-selftest`` step.
"""

import pathlib

from repro.lint import Linter

FIXTURE_ROOT = pathlib.Path(__file__).resolve().parent / "fixtures" / "tree"

#: The complete expected output of the full engine over the specimen
#: tree: (rule, root-relative path, line).
EXPECTED = {
    ("RL002", "sim/clock_bad.py", 7),
    ("RL201", "protocols/known_bad.py", 21),
    ("RL202", "mobility/streams_bad.py", 10),
    ("RL203", "mobility/streams_bad.py", 8),
    ("RL301", "protocols/known_bad.py", 25),
    ("RL401", "protocols/known_bad.py", 29),
}


def _findings(**run_kwargs):
    violations = Linter(root=FIXTURE_ROOT).run(**run_kwargs)
    return {
        (
            v.rule_id,
            pathlib.Path(v.path).resolve().relative_to(FIXTURE_ROOT).as_posix(),
            v.line,
        )
        for v in violations
    }


def test_every_rule_family_fires_exactly_where_pinned():
    assert _findings() == EXPECTED


def test_known_good_specimens_are_silent():
    good = {f for f in _findings() if "known_good" in f[1]}
    assert good == set()


def test_stage_split_partitions_the_findings():
    syntactic = _findings(stage="syntactic")
    program = _findings(stage="program")
    assert syntactic == {f for f in EXPECTED if f[0] == "RL002"}
    assert program == EXPECTED - syntactic
    assert syntactic | program == EXPECTED
