"""The CI gate, as a test: every rule holds on the shipped src/ tree.

One full-engine run is shared by a case per rule, so a regression names
the exact invariant it broke (``test_src_tree_clean[RL003]`` failing
reads as "someone minted UUIDs in simulation code"), and the strict
full-engine run additionally exercises rule interaction and suppression
accounting end to end: a new finding fails here unless it is fixed or
waived inline with a justification, and a waiver that stops matching
fails here too.
"""

import pathlib

import pytest

import repro
from repro.lint import Linter, all_rules

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent

RULES = all_rules()


@pytest.fixture(scope="module")
def src_tree_findings():
    """Every rule over the shipped tree, once for all the per-rule cases."""
    return Linter(root=SRC_ROOT).run()


@pytest.mark.parametrize("rule", RULES, ids=[rule.id for rule in RULES])
def test_src_tree_clean(rule, src_tree_findings):
    # Only this rule's findings (and RL000 problems naming it, such as an
    # unjustified waiver) are the case's concern.
    violations = [
        v
        for v in src_tree_findings
        if v.rule_id == rule.id
        or (v.rule_id == "RL000" and rule.id in v.message)
    ]
    assert violations == [], "\n".join(v.format() for v in violations)


def test_src_tree_clean_all_rules_together():
    violations = Linter(root=SRC_ROOT).run(strict_suppressions=True)
    assert violations == [], "\n".join(v.format() for v in violations)


def test_rule_catalogue_is_wellformed():
    seen = set()
    for rule in RULES:
        # Stable, unique, documented: IDs are the API suppressions target.
        assert rule.id not in seen
        seen.add(rule.id)
        assert rule.id.startswith("RL") and len(rule.id) == 5
        assert rule.title
        assert rule.stage in ("syntactic", "program")
        assert (type(rule).__doc__ or "").strip(), (
            "%s must document the invariant it protects" % rule.id
        )
