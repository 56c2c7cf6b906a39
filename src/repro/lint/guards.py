"""Guarded-update conformance (RL401).

The paper's loop-freedom argument (Theorems 2 and 4) is a statement
about *when* a node may change its successor or feasible distance: only
after the (sn, fd, d) feasibility conditions (NDC) have been checked
against the advertisement being adopted.  The runtime invariant monitor
verifies the *consequences* of every change; this rule verifies the
*precondition* statically, so a
feasibility guard deleted or bypassed in a refactor fails the build
instead of waiting for a topology that happens to exercise the loop.

Mechanically it is a pragmatic dominator analysis over the AST: for each
assignment to a guarded routing field (``successor``/``next_hop``/``fd``)
in a feasibility protocol (one whose ``route_metric`` returns the real
``(sn, fd, d)`` triple — LDR; AODV and friends return None and opt
out), the statements that dominate the write are its preceding
siblings in every enclosing block plus the tests of enclosing ``if``/
``while``.  Evidence that a feasibility check governs the write is:

* a call to one of the NDC/SDC predicates from ``core/conditions.py``
  (``ndc_accepts``, ``sdc_allows_reply``, ...), in a dominating
  statement or in the assigned value itself;
* a comparison mentioning a metric-triplet name (``fd``, ``seqno``,
  ``adv_sn``, ``feasible`` ...);
* a call to a helper whose own body contains such evidence (one level —
  the ``best = self._best_feasible(state)`` idiom).

Route *teardowns* (assigning ``None``/``INFINITY``) are exempt:
withdrawing a route cannot create a loop, and Theorem 4's argument only
constrains adoption.  A guard in the caller does not count: a helper
that writes a guarded field must carry its own evidence.

This is an over-approximation in the safe-for-signal direction: block
siblings count as dominating even from branches that might not execute,
so conformant code stays quiet; genuinely guard-free writes (the shape
a refactor accident produces) have no evidence anywhere and still fire.
A finding that is *correct by protocol design* is pinned, with its
justification, in the committed ``lint_baseline.json``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.config import (
    FEASIBILITY_PREDICATES,
    GUARDED_FIELDS,
    INFINITY_NAMES,
    TABLE_EXEMPT_METHODS,
)
from repro.lint.core import FileContext, ProgramRule, Violation
from repro.lint.program import FunctionDecl, ProgramModel

#: Substrings/tokens that mark an identifier as part of the (sn, fd, d)
#: metric triplet for evidence purposes.
_FD_TOKENS = ("fd", "feasible")
_SN_EXACT = frozenset({"sn", "seqno", "seq"})


def _is_metric_name(identifier: str) -> bool:
    low = identifier.lower()
    if low in _SN_EXACT:
        return True
    for token in _FD_TOKENS:
        if token in low:
            return True
    return "seqno" in low or low.startswith("sn_") or low.endswith("_sn") \
        or "_sn_" in low


def _mentions_metric(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_metric_name(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _is_metric_name(sub.attr):
            return True
    return False


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class GuardedUpdateRule(ProgramRule):
    """RL401: successor/fd assignments must be feasibility-dominated.

    Invariant protected: *Theorem 2/4 preconditions as a compile-time
    gate*.  See the module docstring for the analysis; the invariant
    monitor remains the runtime backstop for anything static reasoning
    cannot see (field writes through exotic aliasing, data-dependent
    guards).
    """

    id = "RL401"
    title = "routing-field write without a dominating feasibility check"

    def check_program(
        self, program: ProgramModel, contexts: Dict[str, FileContext]
    ) -> Iterator[Violation]:
        target_modules = self._feasibility_modules(program)
        for module_name in sorted(target_modules):
            module = program.modules[module_name]
            ctx = contexts.get(module.relpath)
            if ctx is None:
                continue
            for key in sorted(program.functions):
                function = program.functions[key]
                if function.module != module_name:
                    continue
                if function.name in TABLE_EXEMPT_METHODS:
                    continue
                yield from self._check_function(program, ctx, function)

    @staticmethod
    def _feasibility_modules(program: ProgramModel) -> Set[str]:
        """Modules defining a protocol whose route_metric returns a
        3-tuple — the classes the (sn, fd, d) theorems speak about."""
        modules: Set[str] = set()
        for decl in program.protocol_classes():
            resolved = program.resolve_method(decl.key, "route_metric")
            if resolved is None:
                continue
            _, fn = resolved
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Tuple)
                    and len(node.value.elts) == 3
                ):
                    modules.add(decl.module)
                    break
        return modules

    def _check_function(
        self,
        program: ProgramModel,
        ctx: FileContext,
        function: FunctionDecl,
    ) -> Iterator[Violation]:
        for stmt, field in self._guarded_writes(function.node):
            if self._write_evidenced(program, ctx, function, stmt):
                continue
            where = function.key.split(":", 1)[1]
            yield ctx.violation(
                stmt,
                self.id,
                "%s assigns routing field '%s' without a dominating "
                "feasibility check on the (sn, fd, d) triplet; Theorem "
                "2/4 require NDC/SNC evidence before a route is adopted"
                % (where, field),
            )

    # ------------------------------------------------------------------
    # write collection
    # ------------------------------------------------------------------
    def _guarded_writes(
        self, function: ast.FunctionDef
    ) -> List[Tuple[ast.stmt, str]]:
        writes: List[Tuple[ast.stmt, str]] = []
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for field in self._field_targets(target):
                        if not self._is_teardown(node.value, target):
                            writes.append((node, field))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                for field in self._field_targets(node.target):
                    value = getattr(node, "value", None)
                    if value is None or not self._is_teardown(
                        value, node.target
                    ):
                        writes.append((node, field))
        return writes

    @staticmethod
    def _field_targets(target: ast.expr) -> List[str]:
        fields: List[str] = []
        elements = (
            list(target.elts)
            if isinstance(target, (ast.Tuple, ast.List))
            else [target]
        )
        for element in elements:
            if (
                isinstance(element, ast.Attribute)
                and element.attr in GUARDED_FIELDS
            ):
                fields.append(element.attr)
        return fields

    @staticmethod
    def _is_teardown(value: ast.expr, target: ast.expr) -> bool:
        """Withdrawals need no guard: None / INFINITY assignments."""
        if isinstance(target, (ast.Tuple, ast.List)):
            # A tuple unpack from a non-literal value is a real adoption.
            if not isinstance(value, (ast.Tuple, ast.List)):
                return False
            return all(
                GuardedUpdateRule._is_teardown(elt, ast.Name(id="_"))
                for elt in value.elts
            )
        if isinstance(value, ast.Constant) and value.value is None:
            return True
        if isinstance(value, ast.Name) and value.id in INFINITY_NAMES:
            return True
        if isinstance(value, ast.Attribute) and value.attr in INFINITY_NAMES:
            return True
        return False

    # ------------------------------------------------------------------
    # evidence
    # ------------------------------------------------------------------
    def _write_evidenced(
        self,
        program: ProgramModel,
        ctx: FileContext,
        function: FunctionDecl,
        stmt: ast.stmt,
    ) -> bool:
        region = self._dominating_nodes(ctx, stmt)
        value = getattr(stmt, "value", None)
        if value is not None:
            region.append(value)  # guard baked into the assigned expression
        return self._region_evidenced(program, function, region)

    @staticmethod
    def _dominating_nodes(ctx: FileContext, stmt: ast.stmt) -> List[ast.AST]:
        """Preceding siblings in every enclosing block, plus enclosing
        if/while tests, up to the function boundary."""
        nodes: List[ast.AST] = []
        parents = ctx.parent_map()
        child: ast.AST = stmt
        parent = parents.get(child)
        while parent is not None:
            if isinstance(parent, (ast.If, ast.While)):
                nodes.append(parent.test)
            for block_field in ("body", "orelse", "finalbody"):
                block = getattr(parent, block_field, None)
                if isinstance(block, list) and child in block:
                    nodes.extend(block[: block.index(child)])
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            child = parent
            parent = parents.get(parent)
        return nodes

    def _region_evidenced(
        self,
        program: ProgramModel,
        function: FunctionDecl,
        region: List[ast.AST],
    ) -> bool:
        helper_calls: List[ast.Call] = []
        for node in region:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    name = _call_name(sub)
                    if name in FEASIBILITY_PREDICATES:
                        return True
                    helper_calls.append(sub)
                elif isinstance(sub, ast.Compare) and _mentions_metric(sub):
                    return True
        # One level through helpers: `best = self._best_feasible(state)`.
        for call in helper_calls:
            key = program.resolve_call(call, function)
            callee = program.functions.get(key) if key is not None else None
            if callee is None:
                continue
            for sub in ast.walk(callee.node):
                if (
                    isinstance(sub, ast.Call)
                    and _call_name(sub) in FEASIBILITY_PREDICATES
                ):
                    return True
                if isinstance(sub, ast.Compare) and _mentions_metric(sub):
                    return True
        return False


GUARD_RULES: Tuple[type, ...] = (GuardedUpdateRule,)
