"""RNG stream-taint rules (RL201-RL203).

The reproduction draws every random number from a *named* substream
(:class:`~repro.sim.rng.RngStreams`), seeded independently per name, so
that adding one draw in mobility can never shift the sequence protocol
code sees.  That isolation is only real if each stream stays inside the
layer that owns it: a protocol drawing from the ``mobility`` stream
re-couples the two subsystems and silently re-introduces the cross-layer
sensitivity the substream design exists to kill — every cached row,
trace, and verify verdict produced since would be comparing protocols
under *different* mobility.

These are whole-program rules: a stream object is a value, and values
travel.  RL201 polices acquisition sites, RL202 follows the object
through assignments, attribute stores, and calls (via the program call
graph), and RL203 pins stream *names* to the registry in
:mod:`repro.lint.config` so a typo cannot mint a fresh, unseeded-looking
stream nobody audits.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.lint.config import DETERMINISTIC_LAYERS, stream_owners
from repro.lint.conformance import _self_attr
from repro.lint.core import FileContext, ProgramRule, Violation
from repro.lint.program import ModuleDecl, ProgramModel


def stream_name(call: ast.Call) -> Optional[str]:
    """The stream name a ``*.stream(...)`` call acquires, if static.

    Handles the three shapes the codebase uses: a string literal, a
    ``"mac.%d" % id`` format (the literal keeps its prefix), and an
    f-string with a literal head.  Returns None for anything dynamic.
    """
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if (
        isinstance(arg, ast.BinOp)
        and isinstance(arg.op, ast.Mod)
        and isinstance(arg.left, ast.Constant)
        and isinstance(arg.left.value, str)
    ):
        return arg.left.value
    if isinstance(arg, ast.JoinedStr) and arg.values:
        head = arg.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value + "%s"
    return None


def is_stream_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "stream"
    )


class StreamTaintRule(ProgramRule):
    """Shared machinery: find acquisition sites in patrolled files."""

    def _patrolled(
        self, contexts: Dict[str, FileContext]
    ) -> Iterator[FileContext]:
        for relpath in sorted(contexts):
            ctx = contexts[relpath]
            if ctx.layer in DETERMINISTIC_LAYERS:
                yield ctx

    @staticmethod
    def _acquisitions(
        ctx: FileContext,
    ) -> Iterator[Tuple[ast.Call, Optional[str]]]:
        for node in ast.walk(ctx.tree):
            if is_stream_call(node):
                assert isinstance(node, ast.Call)
                yield node, stream_name(node)


class CrossLayerStreamAcquisition(StreamTaintRule):
    """RL201: a layer may only acquire the RNG streams it owns.

    Invariant protected: *per-layer stream isolation*.  Streams are
    seeded per name so each subsystem's randomness is independent; code
    in ``protocols/`` calling ``sim.stream("mobility")`` shares state
    with the mobility model, so one extra waypoint draw perturbs routing
    tie-breaks — the exact coupling the paper's "same mobility across
    protocols" methodology forbids.  Ownership is declared in
    ``STREAM_LAYERS`` (:mod:`repro.lint.config`).
    """

    id = "RL201"
    title = "cross-layer RNG stream acquisition"

    def check_program(
        self, program: ProgramModel, contexts: Dict[str, FileContext]
    ) -> Iterator[Violation]:
        for ctx in self._patrolled(contexts):
            for call, name in self._acquisitions(ctx):
                if name is None:
                    continue  # RL203's jurisdiction
                owners = stream_owners(name)
                if owners is None or ctx.layer in owners:
                    continue
                yield ctx.violation(
                    call,
                    self.id,
                    "layer '%s' acquires RNG stream '%s' owned by %s; "
                    "drawing another layer's stream couples their random "
                    "sequences and breaks per-layer determinism"
                    % (ctx.layer, name, "/".join(sorted(owners))),
                )


class StreamObjectEscape(StreamTaintRule):
    """RL202: a stream object must not escape the layer that acquired it.

    Invariant protected: *per-layer stream isolation*, past the
    acquisition site.  RL201 sees ``sim.stream("mobility")`` written
    where it does not belong; this rule follows the returned object —
    through local assignments and ``self`` attributes — and flags it
    being handed onward: stored onto some *other* object's attribute, or
    passed as an argument to a function the call graph resolves into a
    layer that does not own the stream.  Either way the stream has a
    consumer its seed schedule never accounted for.
    """

    id = "RL202"
    title = "RNG stream object escapes its owning layer"

    def check_program(
        self, program: ProgramModel, contexts: Dict[str, FileContext]
    ) -> Iterator[Violation]:
        for ctx in self._patrolled(contexts):
            tainted = self._taint(ctx)
            if not tainted:
                continue
            yield from self._escapes(program, ctx, tainted)

    @staticmethod
    def _taint(ctx: FileContext) -> Dict[str, str]:
        """Names (locals and ``self.X`` attrs, as ``X``) bound to a
        statically-named stream, mapped to the stream name."""
        tainted: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            if not is_stream_call(node.value):
                continue
            assert isinstance(node.value, ast.Call)
            name = stream_name(node.value)
            if name is None:
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name):
                tainted[target.id] = name
            else:
                attr = _self_attr(target)
                if attr is not None:
                    tainted[attr] = name
        return tainted

    def _tainted_stream(
        self, node: ast.expr, tainted: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(node, ast.Name):
            return tainted.get(node.id)
        attr = _self_attr(node)
        if attr is not None:
            return tainted.get(attr)
        return None

    def _escapes(
        self,
        program: ProgramModel,
        ctx: FileContext,
        tainted: Dict[str, str],
    ) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                value_stream = self._tainted_stream(node.value, tainted)
                if value_stream is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and _self_attr(target) is None
                    ):
                        yield ctx.violation(
                            node,
                            self.id,
                            "RNG stream '%s' is stored onto another "
                            "object's attribute; the stream now has a "
                            "consumer outside layer '%s' seed accounting"
                            % (value_stream, ctx.layer),
                        )
            elif isinstance(node, ast.Call):
                if is_stream_call(node):
                    continue
                for arg in node.args:
                    value_stream = self._tainted_stream(arg, tainted)
                    if value_stream is None:
                        continue
                    layer = self._callee_layer(program, node, ctx.module)
                    if layer is None or layer == ctx.layer:
                        continue
                    owners = stream_owners(value_stream) or ()
                    if layer in owners:
                        continue
                    yield ctx.violation(
                        node,
                        self.id,
                        "RNG stream '%s' is passed from layer '%s' into "
                        "layer '%s', which does not own it"
                        % (value_stream, ctx.layer, layer),
                    )

    @staticmethod
    def _callee_layer(
        program: ProgramModel, call: ast.Call, module: ModuleDecl
    ) -> Optional[str]:
        """Layer of the module defining the (statically resolved) callee."""
        canonical = program.canonical_name(call.func, module)
        if canonical is None:
            return None
        # A function, or a class constructor: either way the longest
        # known-module prefix names the receiving side.
        parts = canonical.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in program.modules:
                return program.modules[prefix].layer
        return None


class UnregisteredStreamName(StreamTaintRule):
    """RL203: every acquired stream name must exist in the registry.

    Invariant protected: *auditable seed schedule*.  ``RngStreams``
    happily mints a stream for any name, so ``sim.stream("mobilty")``
    (typo) silently draws from a fresh sequence instead of the shared
    mobility one — no crash, plausible numbers, wrong experiment.
    Dynamic (non-literal) names are flagged for the same reason: a name
    computed at runtime cannot be checked against ``STREAM_LAYERS``, and
    the one legitimate dynamic pass-through (``sim/``) is allowlisted.
    """

    id = "RL203"
    title = "unregistered or dynamic RNG stream name"

    def check_program(
        self, program: ProgramModel, contexts: Dict[str, FileContext]
    ) -> Iterator[Violation]:
        for ctx in self._patrolled(contexts):
            for call, name in self._acquisitions(ctx):
                if name is None:
                    yield ctx.violation(
                        call,
                        self.id,
                        "stream name is computed at runtime; use a literal "
                        "(or literal prefix) so it can be checked against "
                        "the STREAM_LAYERS registry",
                    )
                elif stream_owners(name) is None:
                    yield ctx.violation(
                        call,
                        self.id,
                        "RNG stream '%s' is not in the STREAM_LAYERS "
                        "registry; register it (with its owning layer) or "
                        "fix the name" % name,
                    )


TAINT_RULES: Tuple[type, ...] = (
    CrossLayerStreamAcquisition,
    StreamObjectEscape,
    UnregisteredStreamName,
)
