"""Protocol-conformance rules (RL101-RL103).

The runtime :class:`~repro.faults.monitor.InvariantMonitor` is the
reproduction's empirical witness for the paper's Theorem 4 (instantaneous
loop freedom) and Theorem 2 (the sn/fd ordering along successor paths).
It can only audit what protocols expose: ``successor(dst)`` gives it the
successor graph, ``route_metric(dst)`` the ``(sn, fd, d)`` labels, and
``table_change_hook`` tells it *when* to look.  A protocol that forgets
any of the three doesn't fail — it silently opts out of the audit, which
is precisely how sequence-number protocols have historically shipped
looping behaviour (van Glabbeek et al., "Sequence Numbers Do Not
Guarantee Loop Freedom").  These rules make opting out impossible without
an explicit, justified suppression.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.lint.config import CONFORMANCE_LAYERS, TABLE_EXEMPT_METHODS
from repro.lint.core import FileContext, Rule, Violation
from repro.lint.program import ClassDecl, ProgramModel

#: Container methods that mutate a dict-shaped routing table in place.
_MUTATING_METHODS = frozenset({"pop", "clear", "update", "setdefault", "popitem"})


class ConformanceRule(Rule):
    """Base for rules that patrol protocol-implementation layers."""

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.layer in CONFORMANCE_LAYERS

    @staticmethod
    def protocol_classes(ctx: FileContext) -> Iterator[ClassDecl]:
        """The program's protocol classes defined in this file."""
        for decl in ctx.program.protocol_classes():
            if decl.module == ctx.module.name:
                yield decl


class RequireSuccessor(ConformanceRule):
    """RL101: every RoutingProtocol subclass must implement ``successor``.

    Invariant protected: *Theorem 4 auditability*.  The monitor walks
    ``successor(dst)`` chains after every table change; a protocol that
    inherits the base stub (always ``None``) presents an empty successor
    graph and passes every audit vacuously.  Defining it in a base class
    that is itself analysed (a protocol subclassing another protocol)
    counts.
    """

    id = "RL101"
    title = "protocol must implement successor()"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for decl in self.protocol_classes(ctx):
            if ctx.program.resolve_method(decl.key, "successor") is None:
                yield ctx.violation(
                    decl.node,
                    self.id,
                    "%s derives from RoutingProtocol but never implements "
                    "successor(); the loop audit would see an empty graph"
                    % decl.name,
                )


class RequireRouteMetric(ConformanceRule):
    """RL102: every RoutingProtocol subclass must implement
    ``route_metric`` and return the documented ``(sn, fd, d)`` triple.

    Invariant protected: *Theorem 2 ordering* (NDC/FDC/SDC).  The ordering
    audit — sequence numbers non-decreasing toward the destination,
    feasible distance strictly decreasing at equal sn — only runs for
    protocols that expose metrics.  Inheriting the base stub is a silent
    opt-out; a protocol without the LDR notions must still *explicitly*
    return ``None`` and say why in its docstring.  Any tuple it does
    return must have exactly three elements, the shape the ordering
    audit in :mod:`repro.routing.loopcheck` unpacks.
    """

    id = "RL102"
    title = "protocol must implement route_metric() with (sn, fd, d) shape"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for decl in self.protocol_classes(ctx):
            resolved = ctx.program.resolve_method(decl.key, "route_metric")
            if resolved is None:
                yield ctx.violation(
                    decl.node,
                    self.id,
                    "%s derives from RoutingProtocol but never implements "
                    "route_metric(); return (sn, fd, d) or an explicit None "
                    "with a docstring explaining why the ordering audit "
                    "does not apply" % decl.name,
                )
                continue
            owner, function = resolved
            # Check the tuple shape only at the defining class, once.
            if owner.key != decl.key:
                continue
            for sub in ast.walk(function):
                if (
                    isinstance(sub, ast.Return)
                    and isinstance(sub.value, ast.Tuple)
                    and len(sub.value.elts) != 3
                ):
                    yield ctx.violation(
                        sub,
                        self.id,
                        "route_metric() must return the (sn, fd, d) triple "
                        "the invariant monitor unpacks; this return has %d "
                        "elements"
                        % len(sub.value.elts),
                    )


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.X`` -> ``"X"``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _successor_reads(function: ast.FunctionDef) -> Set[str]:
    """Self attributes the successor() implementation reads — these hold
    the routing state the invariant monitor observes."""
    reads: Set[str] = set()
    for node in ast.walk(function):
        attr = _self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):
            reads.add(attr)
    return reads


def _self_tables(tracked: Set[str]) -> Dict[str, str]:
    """Spellings of the tracked tables inside their own class."""
    return {"self." + attr: attr for attr in tracked}


def _spelling(node: ast.expr) -> str:
    """``x`` or ``x.y`` as source text; ``""`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id + "." + node.attr
    return ""


def _mutated(node: ast.AST) -> List[ast.expr]:
    """The containers ``node`` changes in place: the receiver of a
    subscript store/delete or of a mutating method call, and an attribute
    rebound or deleted wholesale (rebinding a local name changes none)."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            return [func.value]
        return []
    targets: List[ast.expr] = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    return [
        target.value if isinstance(target, ast.Subscript) else target
        for target in targets
        if isinstance(target, (ast.Subscript, ast.Attribute))
    ]


def _table_mutations(
    scope: ast.AST, tables: Mapping[str, str]
) -> List[Tuple[ast.AST, str]]:
    """Container-level mutations of routing tables inside ``scope``.

    ``tables`` maps how a table is spelled in ``scope`` — ``self.routes``,
    a local alias, a helper's parameter ``p`` or ``p.routes`` — to the
    tracked attribute it holds.  Field-level writes on individual entries
    (``entry.next_hop = ...``) are outside static reach; the runtime
    invariant monitor still covers those.
    """
    mutations: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(scope):
        for container in _mutated(node):
            attr = tables.get(_spelling(container))
            if attr is not None:
                mutations.append((node, attr))
    return mutations


def _is_notified(
    ctx: FileContext, mutation: ast.AST, notifies: Sequence[ast.AST]
) -> bool:
    """True when a notification sits lexically at or after ``mutation``,
    or inside a loop that also encloses it (it then post-dominates the
    mutation on the next iteration's path)."""
    mutation_line = getattr(mutation, "lineno", 0)
    if any(getattr(node, "lineno", 0) >= mutation_line for node in notifies):
        return True
    loops = {
        ancestor
        for ancestor in ctx.ancestors(mutation)
        if isinstance(ancestor, (ast.For, ast.While))
    }
    return bool(loops) and any(
        ancestor in loops for node in notifies for ancestor in ctx.ancestors(node)
    )


class RequireTableChangeNotify(ConformanceRule):
    """RL103: routing-table mutations must be post-dominated by a
    ``table_change_hook`` notification.

    Invariant protected: *Theorem 4 auditability*.  The monitor only
    audits the successor graph when told, and after a clean audit it
    re-checks only the node that notified; a table write without a
    subsequent ``_notify_table_change(dst)`` is a state change the audit
    never sees — a loop created there can survive until the end-of-run
    sweep, defeating the "instant by instant" claim.

    Mechanically: the routing table is whatever ``self`` attributes the
    class's ``successor()`` reads.  Any method (outside ``__init__`` /
    ``start``) that mutates those containers — subscript store/delete,
    ``pop``/``clear``/``update``/``setdefault``, or wholesale rebind —
    must also call ``self._notify_table_change(...)`` lexically at or
    after the mutation (or inside the same loop body).  Mutations that
    provably cannot change any successor (e.g. lazily creating an entry
    with infinite distance) carry a justified suppression instead.
    """

    id = "RL103"
    title = "table mutation without table_change_hook notification"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for decl in self.protocol_classes(ctx):
            resolved = ctx.program.resolve_method(decl.key, "successor")
            if resolved is None:
                continue  # RL101 already fires
            tables = _self_tables(_successor_reads(resolved[1]))
            for method in decl.node.body:
                if (
                    not isinstance(method, ast.FunctionDef)
                    or method.name in TABLE_EXEMPT_METHODS
                ):
                    continue
                notifies = ProgramModel.hook_calls(method)
                for mutation, attr in _table_mutations(method, tables):
                    if _is_notified(ctx, mutation, notifies):
                        continue
                    yield ctx.violation(
                        mutation,
                        self.id,
                        "%s.%s mutates routing table 'self.%s' without a "
                        "subsequent self._notify_table_change(...); the "
                        "invariant monitor cannot audit this change"
                        % (decl.name, method.name, attr),
                    )


CONFORMANCE_RULES: Tuple[type, ...] = (
    RequireSuccessor,
    RequireRouteMetric,
    RequireTableChangeNotify,
)
