"""The committed findings baseline (``lint_baseline.json``).

A whole-program rule landing on a mature tree inevitably finds things the
team decides are *correct as written* — OLSR hands its own per-node RNG
stream to the shared jitter queue in ``net/``, a layer crossing that is
deliberate delegation, not a leaked stream.  Deleting the rule would lose
its protection everywhere else; suppressing inline would scatter waivers
through protocol code.  The baseline pins those accepted findings in one
reviewed, committed file:

* a finding that matches a baseline entry is filtered from the report;
* a *new* finding (no entry) fails CI like any other violation;
* an entry whose finding no longer fires is itself reported (RL000), so
  the baseline can only shrink deliberately — edits must land in the same
  PR as the code change that made them necessary.

Entries match on ``(rule, path, message)`` — not line numbers, which
shift with every unrelated edit.  Rule messages are constructed without
line/column text for exactly this reason.  Every entry carries a
non-empty ``justification``; loading a file with an unjustified entry is
an error, the same contract inline suppressions have.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

FORMAT_VERSION = 1

#: Placeholder written by ``--update-baseline`` for findings that had no
#: prior entry; CI review replaces it before merge (the loader accepts it
#: as non-empty but ``repro lint`` prints a warning).
TODO_JUSTIFICATION = "TODO: justify or fix"


@dataclass(frozen=True)
class BaselineEntry:
    """One pinned finding."""

    rule: str
    path: str  # root-relative posix path
    message: str
    justification: str

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.message)


class BaselineError(ValueError):
    """Raised for a malformed or unjustified baseline file."""


@dataclass
class Baseline:
    """Loaded baseline plus per-entry usage tracking for staleness."""

    path: Path
    entries: List[BaselineEntry] = field(default_factory=list)
    _used: Dict[Tuple[str, str, str], bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for entry in self.entries:
            self._used.setdefault(entry.key, False)

    def match(self, rule: str, relpath: str, message: str) -> bool:
        """True (and mark used) when the finding is pinned."""
        key = (rule, relpath, message)
        if key in self._used:
            self._used[key] = True
            return True
        return False

    def stale_entries(self) -> List[BaselineEntry]:
        """Entries no current finding matched, in file order."""
        return [entry for entry in self.entries if not self._used[entry.key]]

    def todo_entries(self) -> List[BaselineEntry]:
        return [
            entry
            for entry in self.entries
            if entry.justification == TODO_JUSTIFICATION
        ]


def load_baseline(path: Path) -> Baseline:
    """Parse and validate a baseline file."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BaselineError("cannot read baseline %s: %s" % (path, exc))
    if not isinstance(data, dict) or data.get("version") != FORMAT_VERSION:
        raise BaselineError(
            "baseline %s: expected {'version': %d, 'findings': [...]}"
            % (path, FORMAT_VERSION)
        )
    findings = data.get("findings")
    if not isinstance(findings, list):
        raise BaselineError("baseline %s: 'findings' must be a list" % path)
    entries: List[BaselineEntry] = []
    for index, raw in enumerate(findings):
        if not isinstance(raw, dict):
            raise BaselineError(
                "baseline %s: findings[%d] is not an object" % (path, index)
            )
        missing = [
            k
            for k in ("rule", "path", "message", "justification")
            if not isinstance(raw.get(k), str) or not raw.get(k)
        ]
        if missing:
            raise BaselineError(
                "baseline %s: findings[%d] needs non-empty %s; every pinned "
                "finding must say why it is accepted"
                % (path, index, ", ".join(missing))
            )
        entries.append(
            BaselineEntry(
                rule=raw["rule"],
                path=raw["path"],
                message=raw["message"],
                justification=raw["justification"],
            )
        )
    return Baseline(path=path, entries=entries)


def discover_baseline(root: Path) -> Optional[Path]:
    """Find the committed baseline for a lint root.

    Walks from ``root`` upward (root itself, then parents) and returns the
    first ``lint_baseline.json``; for the shipped ``src/repro`` tree that
    is the repository root, two levels up.  Synthetic fixture roots under
    a temp directory find nothing and run baseline-free.
    """
    for candidate in (root, *root.resolve().parents):
        path = candidate / "lint_baseline.json"
        if path.is_file():
            return path
    return None


def write_baseline(
    path: Path,
    findings: Sequence[Tuple[str, str, str]],
    previous: Optional[Baseline] = None,
) -> Baseline:
    """Write ``(rule, relpath, message)`` findings as a baseline.

    Justifications from ``previous`` are preserved for findings that were
    already pinned; new findings get the TODO placeholder so the diff
    review cannot miss them.
    """
    kept: Dict[Tuple[str, str, str], str] = {}
    if previous is not None:
        for entry in previous.entries:
            kept[entry.key] = entry.justification
    entries = [
        BaselineEntry(
            rule=rule,
            path=relpath,
            message=message,
            justification=kept.get(
                (rule, relpath, message), TODO_JUSTIFICATION
            ),
        )
        for rule, relpath, message in sorted(set(findings))
    ]
    payload = {
        "version": FORMAT_VERSION,
        "findings": [
            {
                "rule": entry.rule,
                "path": entry.path,
                "message": entry.message,
                "justification": entry.justification,
            }
            for entry in entries
        ],
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return Baseline(path=path, entries=entries)
