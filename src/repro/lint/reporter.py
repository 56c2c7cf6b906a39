"""Violation rendering for terminals, CI logs, and tooling."""

from __future__ import annotations

import json
from typing import IO, Sequence

from repro.lint.core import Rule, Violation


def format_text(violations: Sequence[Violation], stream: IO[str]) -> None:
    """gcc-style ``path:line:col: RLxxx message`` lines plus a summary."""
    for violation in violations:
        stream.write(violation.format() + "\n")
    if violations:
        by_rule: dict = {}
        for violation in violations:
            by_rule[violation.rule_id] = by_rule.get(violation.rule_id, 0) + 1
        breakdown = ", ".join(
            "%s x%d" % (rule_id, count)
            for rule_id, count in sorted(by_rule.items())
        )
        stream.write(
            "repro lint: %d violation%s (%s)\n"
            % (len(violations), "" if len(violations) == 1 else "s", breakdown)
        )
    else:
        stream.write("repro lint: clean\n")


def format_json(violations: Sequence[Violation], stream: IO[str]) -> None:
    """Machine-readable output for editor/CI integrations."""
    payload = [
        {
            "path": v.path,
            "line": v.line,
            "col": v.col,
            "rule": v.rule_id,
            "message": v.message,
        }
        for v in violations
    ]
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def format_rule_list(rules: Sequence[Rule], stream: IO[str]) -> None:
    """``--list-rules``: id, title, and the first docstring paragraph."""
    for rule in rules:
        stream.write("%s  %s\n" % (rule.id, rule.title))
        doc = (type(rule).__doc__ or "").strip()
        if doc:
            first = doc.split("\n\n", 1)[0]
            for line in first.splitlines():
                stream.write("       %s\n" % line.strip())
        stream.write("\n")


def _doc_summary(rule: Rule) -> str:
    """First docstring paragraph, flattened to one line."""
    doc = (type(rule).__doc__ or "").strip()
    if not doc:
        return rule.title
    first = doc.split("\n\n", 1)[0]
    return " ".join(part.strip() for part in first.splitlines())


def format_rule_table(rules: Sequence[Rule], stream: IO[str]) -> None:
    """``--list-rules --format md``: the rule-reference table README
    embeds.  Regenerate with ``python -m repro lint --list-rules
    --format md`` whenever a rule is added or its summary changes."""
    stream.write("| ID | Stage | Title | Invariant |\n")
    stream.write("|----|-------|-------|----------|\n")
    for rule in rules:
        summary = _doc_summary(rule).replace("|", "\\|").replace("``", "`")
        title = rule.title.replace("|", "\\|")
        stream.write(
            "| %s | %s | %s | %s |\n" % (rule.id, rule.stage, title, summary)
        )


def format_markdown(violations: Sequence[Violation], stream: IO[str]) -> None:
    """Violations as a markdown table (PR comments, job summaries)."""
    if not violations:
        stream.write("`repro lint`: clean\n")
        return
    stream.write("| File | Line | Rule | Message |\n")
    stream.write("|------|------|------|--------|\n")
    for v in violations:
        stream.write(
            "| %s | %d | %s | %s |\n"
            % (v.path, v.line, v.rule_id, v.message.replace("|", "\\|"))
        )


#: Pinned SARIF schema; consumers (GitHub code scanning et al.) key on it.
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def format_sarif(
    violations: Sequence[Violation],
    stream: IO[str],
    rules: Sequence[Rule] = (),
) -> None:
    """SARIF 2.1.0 so findings annotate PRs via code-scanning upload."""
    rule_ids = sorted({v.rule_id for v in violations})
    by_id = {rule.id: rule for rule in rules}
    descriptors = []
    for rule_id in rule_ids:
        rule = by_id.get(rule_id)
        descriptors.append(
            {
                "id": rule_id,
                "name": rule.title if rule else "engine diagnostic",
                "shortDescription": {
                    "text": rule.title if rule else "engine diagnostic"
                },
                "fullDescription": {
                    "text": _doc_summary(rule) if rule else (
                        "RL000: unparsable file, or an unjustified, "
                        "unknown-id or stale suppression"
                    )
                },
            }
        )
    results = [
        {
            "ruleId": v.rule_id,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": v.path},
                        "region": {
                            "startLine": max(v.line, 1),
                            "startColumn": v.col + 1,
                        },
                    }
                }
            ],
        }
        for v in violations
    ]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": descriptors,
                    }
                },
                "results": results,
            }
        ],
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")
