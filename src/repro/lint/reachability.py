"""Hook-bypass reachability (RL301).

RL103 proves that a *direct* ``self.table[...] = ...`` inside a protocol
method is followed by ``_notify_table_change``.  It is blind to every
indirect route to the same state: a local alias (``t = self.table;
t[dst] = e``), a helper that receives the table (or ``self``) as an
argument and mutates it, and a method inherited from a mixin defined in
another file.  Each of those is a path on which the routing table changes
while the :class:`~repro.routing.loopcheck.LoopChecker` — the runtime
witness for the paper's Theorem 4 — is never told to look.  Van
Glabbeek/Höfner's AODV analyses found exactly this shape: per-function
reasoning holds, the composition loops.

This rule walks the whole-program call graph.  It finds mutations with
RL103's container-mutation walker (``_table_mutations``) and clears
them with RL103's post-domination test (``_is_notified``: a
notification at-or-after the mutation, or in the same loop body), so
the two rules agree on what "mutated" and "notified" mean and never
double-report: RL103 keeps direct own-method mutations; RL301 takes
aliases, helper arguments, and cross-file inheritance.  The one
difference is what counts as a notification: RL301 also accepts a call
into the notify closure (a function that transitively fires
``table_change_hook``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.config import CONFORMANCE_LAYERS, TABLE_EXEMPT_METHODS
from repro.lint.conformance import (
    _is_notified,
    _self_attr,
    _self_tables,
    _successor_reads,
    _table_mutations,
)
from repro.lint.core import FileContext, ProgramRule, Violation
from repro.lint.program import ClassDecl, ProgramModel


def _aliases_of(method: ast.FunctionDef, tracked: Set[str]) -> Dict[str, str]:
    """Local names bound to a tracked ``self`` attribute."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                attr = _self_attr(node.value)
                if attr is not None and attr in tracked:
                    aliases[target.id] = attr
                elif target.id in aliases:
                    del aliases[target.id]  # rebound to something else
    return aliases


def _handed_tables(
    call: ast.Call, callee: ast.FunctionDef, tracked: Set[str]
) -> List[Dict[str, str]]:
    """How ``callee`` spells each routing table ``call`` hands it.

    Handing over ``self`` as parameter ``p`` exposes every tracked table
    as ``p.<attr>``; handing over ``self.<attr>`` exposes that one table
    as ``p`` itself.
    """
    params = [a.arg for a in callee.args.args]
    # Positional args align after the callee's own `self`, when present.
    offset = 1 if params and params[0] == "self" else 0
    handed = [
        (params[index + offset], arg)
        for index, arg in enumerate(call.args)
        if index + offset < len(params)
    ]
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in params:
            handed.append((keyword.arg, keyword.value))
    tables: List[Dict[str, str]] = []
    for param, arg in handed:
        if isinstance(arg, ast.Name) and arg.id == "self":
            tables.append({param + "." + attr: attr for attr in tracked})
        else:
            attr = _self_attr(arg)
            if attr is not None and attr in tracked:
                tables.append({param: attr})
    return tables


class RequireReachableNotify(ProgramRule):
    """RL301: no call-graph path may mutate the routing table unnotified.

    Invariant protected: *Theorem 4 auditability*, inter-procedurally.
    The tracked state is whatever ``self`` attributes the protocol's
    ``successor()`` reads (RL103's definition).  Three path shapes RL103
    cannot see are checked, across files via the class hierarchy:

    * **aliases** — ``t = self.table; t[dst] = entry``;
    * **helper arguments** — ``_prune(self.table)`` or ``_prune(self)``
      where the helper's body mutates what it was handed and is not in
      the notify closure;
    * **inherited methods** — a mixin method defined in another
      file/class that mutates the protocol's tracked attributes.

    A mutation is cleared by a notification-equivalent call (a direct
    hook call, or a call to a function that transitively notifies)
    lexically at-or-after it, or in the same loop body.
    """

    id = "RL301"
    title = "routing-table mutation reachable without notification"

    def check_program(
        self, program: ProgramModel, contexts: Dict[str, FileContext]
    ) -> Iterator[Violation]:
        notifiers = program.notifiers()
        for decl in program.protocol_classes():
            module = program.modules.get(decl.module)
            if module is None:
                continue
            ctx = contexts.get(module.relpath)
            if ctx is None or ctx.layer not in CONFORMANCE_LAYERS:
                continue
            resolved = program.resolve_method(decl.key, "successor")
            if resolved is None:
                continue  # RL101's jurisdiction
            tracked = _successor_reads(resolved[1])
            if not tracked:
                continue
            yield from self._check_class(
                program, contexts, decl, tracked, notifiers
            )

    def _check_class(
        self,
        program: ProgramModel,
        contexts: Dict[str, FileContext],
        decl: ClassDecl,
        tracked: Set[str],
        notifiers: Set[str],
    ) -> Iterator[Violation]:
        for owner, method in program.methods_of(decl.key):
            owner_module = program.modules.get(owner.module)
            if owner_module is None:
                continue
            ctx = contexts.get(owner_module.relpath)
            if ctx is None:
                continue
            if method.name in TABLE_EXEMPT_METHODS:
                continue
            key = program.function_key(owner, method, owner.module)
            # Notification-equivalent calls: direct hook invocations plus
            # calls into the notify closure.
            cleared: List[ast.AST] = list(ProgramModel.hook_calls(method))
            cleared.extend(
                site.node
                for site in program.calls_in(key)
                if site.callee in notifiers
            )

            # Inherited coverage: direct self.<tracked> mutations in a
            # method whose defining class is not itself a protocol class
            # (those are RL103's jurisdiction, checked with their own
            # tracked set in their own file).
            if owner.key != decl.key and not program.is_routing_protocol(
                owner.key
            ):
                for mutation, attr in _table_mutations(
                    method, _self_tables(tracked)
                ):
                    if _is_notified(ctx, mutation, cleared):
                        continue
                    yield ctx.violation(
                        mutation,
                        self.id,
                        "%s.%s mutates routing table 'self.%s' (inherited "
                        "into a protocol) without reaching "
                        "table_change_hook; the LoopChecker cannot audit "
                        "this change" % (owner.name, method.name, attr),
                    )

            # Alias mutations, in every visible method.
            aliases = _aliases_of(method, tracked)
            for mutation, attr in _table_mutations(method, aliases):
                if _is_notified(ctx, mutation, cleared):
                    continue
                yield ctx.violation(
                    mutation,
                    self.id,
                    "%s.%s mutates routing table 'self.%s' through a "
                    "local alias without reaching table_change_hook; "
                    "the LoopChecker cannot audit this change"
                    % (owner.name, method.name, attr),
                )

            # Helper-argument mutations: self (or a tracked table) handed
            # to a callee that mutates it and never notifies.
            yield from self._check_helper_args(
                program, ctx, owner, method, key, tracked, notifiers, cleared
            )

    def _check_helper_args(
        self,
        program: ProgramModel,
        ctx: FileContext,
        owner: ClassDecl,
        method: ast.FunctionDef,
        key: str,
        tracked: Set[str],
        notifiers: Set[str],
        cleared: List[ast.AST],
    ) -> Iterator[Violation]:
        for site in program.calls_in(key):
            if site.callee in notifiers:
                continue
            callee_decl = program.functions.get(site.callee)
            if callee_decl is None:
                continue
            for tables in _handed_tables(site.node, callee_decl.node, tracked):
                mutated = _table_mutations(callee_decl.node, tables)
                if not mutated or _is_notified(ctx, site.node, cleared):
                    continue
                yield ctx.violation(
                    site.node,
                    self.id,
                    "%s.%s passes routing state to %s, which mutates "
                    "'%s' without reaching table_change_hook; the "
                    "LoopChecker cannot audit this change"
                    % (owner.name, method.name, callee_decl.name, mutated[0][1]),
                )


REACHABILITY_RULES: Tuple[type, ...] = (RequireReachableNotify,)
