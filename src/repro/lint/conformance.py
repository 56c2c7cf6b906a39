"""Protocol-conformance rules (RL101-RL103).

The runtime :class:`~repro.routing.loopcheck.LoopChecker` is the
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
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.core import FileContext, ProjectIndex, Rule, Violation

#: Container methods that mutate a dict-shaped routing table in place.
_MUTATING_METHODS = frozenset({"pop", "clear", "update", "setdefault", "popitem"})


class ConformanceRule(Rule):
    """Base for rules that patrol protocol-implementation layers."""

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.layer in ctx.config.conformance_layers

    @staticmethod
    def protocol_classes(ctx: FileContext) -> Iterator[ast.ClassDef]:
        index = ctx.project
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name != ProjectIndex.PROTOCOL_BASE
                and index.is_routing_protocol(node.name)
            ):
                yield node


class RequireSuccessor(ConformanceRule):
    """RL101: every RoutingProtocol subclass must implement ``successor``.

    Invariant protected: *Theorem 4 auditability*.  The LoopChecker walks
    ``successor(dst)`` chains after every table change; a protocol that
    inherits the base stub (always ``None``) presents an empty successor
    graph and passes every audit vacuously.  Defining it in a base class
    that is itself analysed (e.g. ``NsrProtocol(DsrProtocol)``) counts.
    """

    id = "RL101"
    title = "protocol must implement successor()"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in self.protocol_classes(ctx):
            if ctx.project.resolve_method(node.name, "successor") is None:
                yield ctx.violation(
                    node,
                    self.id,
                    "%s derives from RoutingProtocol but never implements "
                    "successor(); the loop audit would see an empty graph"
                    % node.name,
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
        for node in self.protocol_classes(ctx):
            resolved = ctx.project.resolve_method(node.name, "route_metric")
            if resolved is None:
                yield ctx.violation(
                    node,
                    self.id,
                    "%s derives from RoutingProtocol but never implements "
                    "route_metric(); return (sn, fd, d) or an explicit None "
                    "with a docstring explaining why the ordering audit "
                    "does not apply" % node.name,
                )
                continue
            info, function = resolved
            # Check the tuple shape only at the defining class, once.
            if info.name != node.name:
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
                        "the LoopChecker unpacks; this return has %d elements"
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
    the routing state the LoopChecker observes."""
    reads: Set[str] = set()
    for node in ast.walk(function):
        attr = _self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):
            reads.add(attr)
    return reads


def _table_mutations(
    method: ast.FunctionDef, tracked: Set[str]
) -> List[Tuple[ast.AST, str]]:
    """Container-level mutations of tracked self attributes.

    Field-level writes on individual entries (``entry.next_hop = ...``)
    are outside static reach; the runtime LoopChecker still covers those.
    """
    mutations: List[Tuple[ast.AST, str]] = []

    def tracked_subscript(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr in tracked:
                return attr
        return None

    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = tracked_subscript(target)
                if attr is None:
                    direct = _self_attr(target)
                    attr = direct if direct in tracked else None
                if attr is not None:
                    mutations.append((node, attr))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            attr = tracked_subscript(node.target)
            if attr is None:
                direct = _self_attr(node.target)
                attr = direct if direct in tracked else None
            if attr is not None:
                mutations.append((node, attr))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = tracked_subscript(target)
                if attr is not None:
                    mutations.append((node, attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATING_METHODS:
                attr = _self_attr(node.func.value)
                if attr in tracked and attr is not None:
                    mutations.append((node, attr))
    return mutations


def _notify_calls(method: ast.FunctionDef) -> List[ast.Call]:
    calls: List[ast.Call] = []
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("_notify_table_change", "table_change_hook")
        ):
            calls.append(node)
    return calls


class RequireTableChangeNotify(ConformanceRule):
    """RL103: routing-table mutations must be post-dominated by a
    ``table_change_hook`` notification.

    Invariant protected: *Theorem 4 auditability*.  The LoopChecker only
    re-walks the successor graph when told; a table write without a
    subsequent ``_notify_table_change(dst)`` is a state change the audit
    never sees — a loop created there survives until some unrelated
    update happens to expose it, defeating the "instant by instant" claim.

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
        for node in self.protocol_classes(ctx):
            resolved = ctx.project.resolve_method(node.name, "successor")
            if resolved is None:
                continue  # RL101 already fires
            tracked = _successor_reads(resolved[1])
            if not tracked:
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name in ctx.config.table_exempt_methods:
                    continue
                mutations = _table_mutations(method, tracked)
                if not mutations:
                    continue
                notifies = _notify_calls(method)
                for mutation, attr in mutations:
                    if self._is_notified(ctx, mutation, notifies):
                        continue
                    yield ctx.violation(
                        mutation,
                        self.id,
                        "%s.%s mutates routing table 'self.%s' without a "
                        "subsequent self._notify_table_change(...); the "
                        "LoopChecker cannot audit this change"
                        % (node.name, method.name, attr),
                    )

    @staticmethod
    def _is_notified(
        ctx: FileContext, mutation: ast.AST, notifies: List[ast.Call]
    ) -> bool:
        mutation_line = getattr(mutation, "lineno", 0)
        for notify in notifies:
            if getattr(notify, "lineno", 0) >= mutation_line:
                return True
        # A notify earlier in the same loop body still post-dominates the
        # mutation on the next iteration's path.
        mutation_loops = {
            ancestor
            for ancestor in ctx.ancestors(mutation)
            if isinstance(ancestor, (ast.For, ast.While))
        }
        if mutation_loops:
            for notify in notifies:
                for ancestor in ctx.ancestors(notify):
                    if ancestor in mutation_loops:
                        return True
        return False


CONFORMANCE_RULES: Tuple[type, ...] = (
    RequireSuccessor,
    RequireRouteMetric,
    RequireTableChangeNotify,
)
