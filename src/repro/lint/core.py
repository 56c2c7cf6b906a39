"""AST-walking lint engine: files, suppressions, rules.

The engine is deliberately dependency-free (stdlib ``ast`` only) so the
gate can run anywhere the test-suite runs.  A run has three phases:

1. **Model** — every file is parsed once into the shared
   :class:`~repro.lint.program.ProgramModel`: each module's import
   bindings and exports, and the class hierarchy keyed by
   module-qualified name, so conformance rules reason about inheritance
   across files (``NsrProtocol(DsrProtocol)`` conforms through its base).
   The call graph inside it is built only if a program rule asks.
2. **Check** — each rule visits each file through a :class:`FileContext`
   that carries the file's layer (top-level directory under the lint
   root), source, its module in the model, and the model itself.
3. **Suppress** — ``# repro-lint: disable=RLxxx -- reason`` comments are
   honoured; a suppression *without* a justification is itself reported
   (RL000) and suppresses nothing, so every waiver is auditable.

A suppression on a ``def``/``class`` line covers that whole definition;
on any other line it covers that line and, when the comment stands alone,
the next statement line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig, load_config
from repro.lint.program import ProgramModel

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=\s*"
    r"(?P<ids>[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)"
    r"\s*(?:--\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        return "%s:%d:%d: %s %s" % (
            self.path,
            self.line,
            self.col,
            self.rule_id,
            self.message,
        )


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro-lint: disable=`` directive."""

    line: int
    rule_ids: Tuple[str, ...]
    reason: Optional[str]
    standalone: bool  # comment-only line (covers the next statement line)


class FileContext:
    """Everything a rule may want to know about one file."""

    def __init__(
        self,
        path: Path,
        relpath: str,
        tree: ast.Module,
        source: str,
        config: LintConfig,
        program: ProgramModel,
    ) -> None:
        self.path = path
        self.relpath = relpath
        self.tree = tree
        self.source = source
        self.config = config
        self.program = program
        self.module = program.by_relpath[relpath]
        self.layer = self.module.layer
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    def parent_map(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent for every node (built lazily, cached)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        parents = self.parent_map()
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.FunctionDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.FunctionDef):
                return ancestor
        return None

    def violation(self, node: ast.AST, rule_id: str, message: str) -> Violation:
        return Violation(
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
        )


class Rule:
    """One named invariant.  Subclasses set ``id``/``title`` and implement
    :meth:`check`; the docstring documents the invariant it protects."""

    id = "RL000"
    title = "abstract rule"
    #: ``syntactic`` rules see one file at a time; ``program`` rules run
    #: once over the whole-program model (see :class:`ProgramRule`).
    stage = "syntactic"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def applies_to(self, ctx: FileContext) -> bool:
        """Layer gating; overridden by rule families."""
        return True


class ProgramRule(Rule):
    """An inter-procedural invariant checked once per run.

    Subclasses implement :meth:`check_program` against the shared
    :class:`~repro.lint.program.ProgramModel`; ``contexts`` maps each
    root-relative path to its :class:`FileContext` so findings land at
    real source locations (and suppression/allowlist filtering applies
    exactly as it does for syntactic rules)."""

    stage = "program"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())

    def check_program(
        self, program: ProgramModel, contexts: Dict[str, FileContext]
    ) -> Iterator[Violation]:
        raise NotImplementedError


def parse_suppressions(source: str) -> List[Suppression]:
    suppressions: List[Suppression] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        ids = tuple(part.strip() for part in match.group("ids").split(","))
        suppressions.append(
            Suppression(
                line=lineno,
                rule_ids=ids,
                reason=match.group("reason"),
                standalone=text.lstrip().startswith("#"),
            )
        )
    return suppressions


@dataclass
class _Span:
    """One resolved coverage window, with a usage bit for staleness."""

    rule_id: str
    first: int
    last: int
    used: bool = False


@dataclass
class _SuppressionSpans:
    """Resolved coverage windows for one file."""

    spans: List[_Span] = field(default_factory=list)

    def covers(self, rule_id: str, line: int) -> bool:
        hit = False
        for span in self.spans:
            if rule_id == span.rule_id and span.first <= line <= span.last:
                span.used = True
                hit = True
        return hit

    def stale(self, active_ids: Set[str]) -> List[_Span]:
        """Spans that suppressed nothing, for rules this run evaluated."""
        return [
            span
            for span in self.spans
            if not span.used and span.rule_id in active_ids
        ]


def _definition_spans(tree: ast.Module) -> Dict[int, int]:
    """Map a ``def``/``class`` line to the definition's last line."""
    spans: Dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            spans[node.lineno] = max(end, spans.get(node.lineno, node.lineno))
    return spans


def resolve_suppressions(
    ctx: FileContext,
    suppressions: Sequence[Suppression],
    known_ids: Optional[Set[str]] = None,
) -> Tuple[_SuppressionSpans, List[Violation]]:
    """Turn directives into coverage spans.

    Unjustified directives are RL000 and suppress nothing; a directive
    naming a rule id that does not exist is RL000 too (it is a typo that
    would otherwise silently fail open — the author believes something is
    waived when nothing is)."""
    spans = _SuppressionSpans()
    problems: List[Violation] = []
    def_spans = _definition_spans(ctx.tree)
    lines = ctx.source.splitlines()
    for suppression in suppressions:
        if known_ids is not None:
            for rule_id in suppression.rule_ids:
                if rule_id not in known_ids:
                    problems.append(
                        Violation(
                            path=str(ctx.path),
                            line=suppression.line,
                            col=0,
                            rule_id="RL000",
                            message=(
                                "suppression names unknown rule id '%s'; "
                                "no such rule exists, so nothing is waived"
                                % rule_id
                            ),
                        )
                    )
        if not suppression.reason:
            problems.append(
                Violation(
                    path=str(ctx.path),
                    line=suppression.line,
                    col=0,
                    rule_id="RL000",
                    message=(
                        "suppression of %s has no justification; write "
                        "'# repro-lint: disable=%s -- <why this is safe>'"
                        % (
                            ",".join(suppression.rule_ids),
                            ",".join(suppression.rule_ids),
                        )
                    ),
                )
            )
            continue  # an unjustified suppression suppresses nothing
        target = suppression.line
        if suppression.standalone:
            # Comment-only line: the directive governs the next code line.
            for offset in range(suppression.line, len(lines) + 1):
                candidate = lines[offset] if offset < len(lines) else ""
                stripped = candidate.strip()
                if stripped and not stripped.startswith("#"):
                    target = offset + 1
                    break
        last = def_spans.get(target, target)
        for rule_id in suppression.rule_ids:
            if known_ids is not None and rule_id not in known_ids:
                continue  # an unknown id has no rule to suppress
            spans.spans.append(
                _Span(rule_id, min(suppression.line, target), last)
            )
    return spans, problems


def all_rules() -> List[Rule]:
    """Every registered rule: determinism, conformance, then the
    whole-program families (taint, reachability, guards)."""
    from repro.lint.conformance import CONFORMANCE_RULES
    from repro.lint.determinism import DETERMINISM_RULES
    from repro.lint.guards import GUARD_RULES
    from repro.lint.reachability import REACHABILITY_RULES
    from repro.lint.taint import TAINT_RULES

    return [
        rule_cls()
        for rule_cls in (
            *DETERMINISM_RULES,
            *CONFORMANCE_RULES,
            *TAINT_RULES,
            *REACHABILITY_RULES,
            *GUARD_RULES,
        )
    ]


def known_rule_ids() -> Set[str]:
    """Every rule id a suppression may legitimately name."""
    return {rule.id for rule in all_rules()} | {"RL000"}


class Linter:
    """Run a rule set over a tree of Python files.

    ``root`` anchors relative paths: the first path component below it is
    the file's *layer* (``protocols``, ``sim``, ...), which is what the
    config uses to scope rules.  A ``src/repro`` root therefore sees the
    same layers as a synthetic fixture tree containing ``protocols/x.py``.
    """

    def __init__(
        self,
        root: Path,
        rules: Optional[Sequence[Rule]] = None,
        config: Optional[LintConfig] = None,
    ) -> None:
        self.root = Path(root)
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        self.config = config if config is not None else load_config(self.root)

    def collect_files(self, paths: Optional[Sequence[Path]] = None) -> List[Path]:
        if paths:
            files: List[Path] = []
            for path in paths:
                path = Path(path)
                if path.is_dir():
                    files.extend(sorted(path.rglob("*.py")))
                else:
                    files.append(path)
            return files
        return sorted(self.root.rglob("*.py"))

    def _relpath(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root.resolve()).as_posix()
        except ValueError:
            # Outside the root: the full path keeps same-named files in
            # separate modules, and its leading "/" keeps the layer "".
            return resolved.as_posix()

    def run(
        self,
        paths: Optional[Sequence[Path]] = None,
        stage: str = "all",
        strict_suppressions: bool = False,
        baseline: Optional[Baseline] = None,
    ) -> List[Violation]:
        files = self.collect_files(paths)
        parsed: List[Tuple[Path, str, ast.Module, str]] = []
        violations: List[Violation] = []
        relpath_of: Dict[str, str] = {}
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError, ValueError) as exc:
                violations.append(
                    Violation(
                        path=str(path),
                        line=getattr(exc, "lineno", 1) or 1,
                        col=0,
                        rule_id="RL000",
                        message="cannot lint file: %s" % exc,
                    )
                )
                continue
            relpath = self._relpath(path)
            relpath_of[str(path)] = relpath
            parsed.append((path, relpath, tree, source))

        # The whole-program model is built unconditionally: the syntactic
        # stage reads import bindings, export chains (a re-exported wall
        # clock is still a wall clock) and the class hierarchy from it too.
        # The call graph inside it is lazy, so that stage stays fast.
        program = ProgramModel.build(
            [(path, relpath, tree) for path, relpath, tree, _ in parsed],
            root_package=self.root.name,
        )

        active = [rule for rule in self.rules if stage in ("all", rule.stage)]
        active_ids = {rule.id for rule in active}
        known = known_rule_ids() | {rule.id for rule in self.rules}

        contexts: Dict[str, FileContext] = {}
        spans_of: Dict[str, _SuppressionSpans] = {}
        for path, relpath, tree, source in parsed:
            ctx = FileContext(path, relpath, tree, source, self.config, program)
            contexts[relpath] = ctx
            spans, problems = resolve_suppressions(
                ctx, parse_suppressions(source), known
            )
            spans_of[relpath] = spans
            violations.extend(problems)
            for rule in active:
                if rule.stage != "syntactic":
                    continue
                if self.config.is_allowed(rule.id, relpath):
                    continue
                if not rule.applies_to(ctx):
                    continue
                for violation in rule.check(ctx):
                    if not spans.covers(violation.rule_id, violation.line):
                        violations.append(violation)

        for rule in active:
            if rule.stage != "program" or not isinstance(rule, ProgramRule):
                continue
            for violation in rule.check_program(program, contexts):
                relpath = relpath_of.get(violation.path, violation.path)
                if self.config.is_allowed(violation.rule_id, relpath):
                    continue
                spans = spans_of.get(relpath)
                if spans is not None and spans.covers(
                    violation.rule_id, violation.line
                ):
                    continue
                violations.append(violation)

        if strict_suppressions:
            for relpath, spans in spans_of.items():
                ctx = contexts[relpath]
                for span in spans.stale(active_ids):
                    violations.append(
                        Violation(
                            path=str(ctx.path),
                            line=span.first,
                            col=0,
                            rule_id="RL000",
                            message=(
                                "stale suppression: %s does not fire on "
                                "the covered lines; delete the directive"
                                % span.rule_id
                            ),
                        )
                    )

        if baseline is not None:
            violations = [
                violation
                for violation in violations
                if not baseline.match(
                    violation.rule_id,
                    relpath_of.get(violation.path, violation.path),
                    violation.message,
                )
            ]
            for entry in baseline.stale_entries():
                if entry.rule not in active_ids:
                    continue  # that rule didn't run (stage/--select filter)
                violations.append(
                    Violation(
                        path=str(baseline.path),
                        line=1,
                        col=0,
                        rule_id="RL000",
                        message=(
                            "stale baseline entry: %s on %s (%s) no longer "
                            "fires; remove it from %s in this PR"
                            % (
                                entry.rule,
                                entry.path,
                                entry.message,
                                baseline.path.name,
                            )
                        ),
                    )
                )

        # Rules may visit overlapping scopes (module + nested functions);
        # report each distinct finding once.
        unique = sorted(
            set(violations), key=lambda v: (v.path, v.line, v.col, v.rule_id)
        )
        return unique
