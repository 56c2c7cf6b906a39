"""``repro lint`` — run the static-analysis gate from the command line.

Usage::

    python -m repro lint                    # full gate over src/repro
    python -m repro lint --stage syntactic  # fast per-file rules only
    python -m repro lint --stage program    # whole-program passes only
    python -m repro lint path/to/tree       # lint a directory (it becomes
                                            # the layer root)
    python -m repro lint --list-rules       # rule catalogue with rationale
    python -m repro lint --list-rules --format md   # README reference table
    python -m repro lint --format sarif --out lint.sarif
    python -m repro lint --strict-suppressions  # also flag stale waivers

Every finding is reported unless an inline ``# repro-lint:
disable=RLxxx -- reason`` beside it waives it; ``--strict-suppressions``
reports a directive that waives nothing among the rules that ran.

Exit status: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, List, Optional, Sequence

from repro.lint.core import Linter, all_rules
from repro.lint.reporter import (
    format_json,
    format_markdown,
    format_rule_list,
    format_rule_table,
    format_sarif,
    format_text,
)


def default_root() -> Optional[Path]:
    """Locate the shipped package tree: prefer ./src/repro, else the
    installed package directory itself."""
    candidate = Path("src") / "repro"
    if (candidate / "__init__.py").is_file():
        return candidate
    package_dir = Path(__file__).resolve().parent.parent
    if (package_dir / "__init__.py").is_file():
        return package_dir
    return None


def build_parser(add_help: bool = True) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism & protocol-conformance static analysis",
        add_help=add_help,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the src/repro tree); "
        "a single directory becomes the layer root",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="directory that defines layers (protocols/, sim/, ...); "
        "defaults to the linted directory or src/repro",
    )
    parser.add_argument(
        "--stage",
        choices=("syntactic", "program", "all"),
        default="all",
        help="which rule tier to run: fast per-file 'syntactic' rules, "
        "whole-program 'program' passes, or both (default all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif", "md"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule with the invariant it protects and exit "
        "(--format md emits the README reference table)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RLxxx[,RLxxx...]",
        help="run only the named rules",
    )
    parser.add_argument(
        "--strict-suppressions",
        action="store_true",
        help="report suppressions that no longer suppress anything",
    )
    return parser


def run(args: argparse.Namespace, stream: IO[str]) -> int:
    rules = all_rules()
    if args.list_rules:
        if args.format == "md":
            format_rule_table(rules, stream)
        else:
            format_rule_list(rules, stream)
        return 0
    if args.select:
        wanted = {part.strip() for part in args.select.split(",")}
        unknown = wanted - {rule.id for rule in rules}
        if unknown:
            print(
                "repro lint: unknown rule id(s): %s" % ", ".join(sorted(unknown)),
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.id in wanted]

    paths: List[Path] = list(args.paths)
    root = args.root
    if root is None:
        if len(paths) == 1 and paths[0].is_dir():
            root = paths[0]
        else:
            root = default_root()
    if root is None:
        print(
            "repro lint: cannot locate a tree to lint; pass a directory or "
            "--root",
            file=sys.stderr,
        )
        return 2
    if not paths:
        paths = [root]

    violations = Linter(root=root, rules=rules).run(
        paths,
        stage=args.stage,
        strict_suppressions=args.strict_suppressions,
    )

    out = stream
    handle: Optional[IO[str]] = None
    if args.out is not None:
        handle = open(args.out, "w", encoding="utf-8")
        out = handle
    try:
        if args.format == "json":
            format_json(violations, out)
        elif args.format == "sarif":
            format_sarif(violations, out, rules)
        elif args.format == "md":
            format_markdown(violations, out)
        else:
            format_text(violations, out)
    finally:
        if handle is not None:
            handle.close()
    return 1 if violations else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
