"""Determinism & protocol-conformance static analysis (``repro lint``).

The reproduction rests on two machine-checkable guarantees:

* **Determinism** — trials are bit-identical given a seed because all
  randomness flows through named :class:`~repro.sim.rng.RngStreams` and no
  simulation code reads wall clocks, address-dependent ``id()`` values, or
  per-process ``hash()`` randomization.  PR 1's on-disk result cache is
  only sound under this property.
* **Protocol conformance** — every routing protocol exposes ``successor``
  and ``route_metric`` and announces routing-table changes through
  ``table_change_hook``, so the runtime
  :class:`~repro.routing.loopcheck.LoopChecker` can audit loop freedom
  instant by instant and can never be silently bypassed.

Every rule reads one project-wide model (:mod:`repro.lint.program`):
import bindings, re-export chains, and the class hierarchy keyed by
module-qualified name.  The two tiers differ only in whether a rule
needs the model's approximate call graph: *syntactic* rules
(``RL0xx``/``RL1xx``) report one file at a time without it;
*whole-program* passes (``RL2xx`` stream taint, ``RL3xx`` hook-bypass
reachability, ``RL4xx`` guarded-update conformance) walk it, because the
bugs worth finding live in the composition of locally-plausible
functions.
Waivers are explicit and auditable: inline
``# repro-lint: disable=RLxxx -- reason`` suppressions, or the
committed ``lint_baseline.json`` (:mod:`repro.lint.baseline`) for
accepted whole-program findings.  See DESIGN.md section "Static-analysis
gates" for the rule-by-rule rationale.
"""

from repro.lint.baseline import Baseline, load_baseline, write_baseline
from repro.lint.config import LintConfig
from repro.lint.conformance import CONFORMANCE_RULES
from repro.lint.core import (
    Linter,
    ProgramRule,
    Rule,
    Violation,
    all_rules,
    known_rule_ids,
)
from repro.lint.determinism import DETERMINISM_RULES
from repro.lint.guards import GUARD_RULES
from repro.lint.program import ProgramModel
from repro.lint.reachability import REACHABILITY_RULES
from repro.lint.reporter import format_json, format_sarif, format_text
from repro.lint.taint import TAINT_RULES

__all__ = [
    "Baseline",
    "CONFORMANCE_RULES",
    "DETERMINISM_RULES",
    "GUARD_RULES",
    "LintConfig",
    "Linter",
    "ProgramModel",
    "ProgramRule",
    "REACHABILITY_RULES",
    "Rule",
    "TAINT_RULES",
    "Violation",
    "all_rules",
    "format_json",
    "format_sarif",
    "format_text",
    "known_rule_ids",
    "load_baseline",
    "write_baseline",
]
