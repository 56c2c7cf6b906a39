"""Determinism rules (RL001-RL006).

The reproduction's headline property is that a trial is a pure function of
its :class:`~repro.experiments.scenario.ScenarioConfig` — same config,
same bits.  PR 1's result cache *returns stored rows instead of running
trials*, so any hidden nondeterminism silently corrupts every figure and
table built from the cache.  These rules ban the ways nondeterminism
creeps into simulation code:

* ambient randomness (``random.*``) instead of named seeded streams,
* wall clocks and UUIDs,
* address-dependent ``id()`` values,
* per-process ``hash()`` randomization,
* iteration order of unordered containers feeding tie-breaks.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.lint.config import DETERMINISTIC_LAYERS
from repro.lint.core import FileContext, Rule, Violation

#: Wall-clock reads banned in simulated-world code (RL002).
_WALL_CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Unique-ID factories banned everywhere (RL003).
_UUID_CALLS = frozenset({"uuid.uuid1", "uuid.uuid4", "os.urandom"})

_SET_CALLS = frozenset({"set", "frozenset"})


class DeterministicLayerRule(Rule):
    """Base for rules that only patrol simulated-world layers."""

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.layer in DETERMINISTIC_LAYERS


class BanAmbientRandom(Rule):
    """RL001: all randomness must flow through ``RngStreams.stream(name)``.

    Invariant protected: *seeded-stream determinism*.  A bare
    ``random.random()`` draws from interpreter-global state seeded from the
    OS; two trials with the same ScenarioConfig would diverge, the result
    cache would serve rows no live run can reproduce, and the paper's
    "same mobility and traffic patterns across protocols" methodology
    breaks.  ``sim/rng.py`` is the single allowlisted construction site.
    """

    id = "RL001"
    title = "ambient random module usage"

    @staticmethod
    def _type_checking_only(ctx: FileContext, node: ast.AST) -> bool:
        """Imports under ``if TYPE_CHECKING:`` never execute — they name
        types, they cannot draw randomness."""
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.If):
                test = ancestor.test
                if (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
                    isinstance(test, ast.Attribute)
                    and test.attr == "TYPE_CHECKING"
                ):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if self._type_checking_only(ctx, node):
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.violation(
                            node,
                            self.id,
                            "direct use of the 'random' module; draw from "
                            "RngStreams.stream(name) (sim/rng.py) instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield ctx.violation(
                        node,
                        self.id,
                        "direct import from the 'random' module; draw from "
                        "RngStreams.stream(name) (sim/rng.py) instead",
                    )


class BanWallClock(Rule):
    """RL002: simulation code must tell time with ``sim.now``, never the
    host clock.

    Invariant protected: *seeded-stream determinism* and trial/cache
    equivalence.  A wall-clock read makes a trial's outputs depend on when
    (and on which machine) it ran, so a cached row and a fresh run could
    legitimately disagree — exactly what the bit-identical guarantee
    forbids.  Host-side orchestration (``exec/``) is allowlisted in
    :mod:`repro.lint.config`: cache-entry ``created`` stamps and progress
    ETAs describe the run, not the simulated world.
    """

    id = "RL002"
    title = "wall-clock read in simulation code"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.program.canonical_name(node.func, ctx.module)
            if dotted in _WALL_CLOCKS:
                yield ctx.violation(
                    node,
                    self.id,
                    "wall-clock read '%s()'; simulation time is sim.now" % dotted,
                )


class BanUniqueIds(Rule):
    """RL003: no UUIDs or OS entropy.

    Invariant protected: *seeded-stream determinism*.  ``uuid4()`` and
    ``os.urandom()`` pull from OS entropy, and ``uuid1()`` mixes in the
    clock and MAC address; identifiers minted from them differ between the
    trial that populated the cache and the trial that would verify it.
    Deterministic identifiers (node ids, sequence counters) already exist.
    """

    id = "RL003"
    title = "UUID / OS-entropy identifier"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (
                    [alias.name for alias in node.names]
                    if isinstance(node, ast.Import)
                    else [node.module or ""]
                )
                if any(name == "secrets" or name.startswith("secrets.")
                       for name in names):
                    yield ctx.violation(
                        node, self.id,
                        "the 'secrets' module is OS entropy by definition",
                    )
            elif isinstance(node, ast.Call):
                dotted = ctx.program.canonical_name(node.func, ctx.module)
                if dotted in _UUID_CALLS:
                    yield ctx.violation(
                        node,
                        self.id,
                        "'%s()' is nondeterministic; derive identifiers from "
                        "node ids or seeded streams" % dotted,
                    )


class BanIdOrdering(DeterministicLayerRule):
    """RL004: ``id()`` values must not influence simulation behaviour.

    Invariant protected: *seeded-stream determinism*.  ``id()`` is a heap
    address — it varies run to run and between the pool workers PR 1
    fans trials over, so any comparison, ordering, or keying built on it
    is nondeterministic even under a fixed seed.
    """

    id = "RL004"
    title = "address-dependent id() use"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                yield ctx.violation(
                    node,
                    self.id,
                    "id() is a heap address and varies across runs/workers; "
                    "key on node ids or explicit counters",
                )


class BanHashDependence(DeterministicLayerRule):
    """RL005: no ``hash()``-dependent behaviour in simulation code.

    Invariant protected: *seeded-stream determinism* across processes.
    ``hash(str)`` is salted per interpreter (PYTHONHASHSEED), so a value
    derived from ``hash()`` differs between the serial run and PR 1's
    worker processes.  ``zlib.crc32`` (as ``sim/rng.py`` uses for stream
    names) is the sanctioned stable hash.  Defining ``__hash__`` on value
    types is fine — only *reading* hashes in protocol logic is not.
    """

    id = "RL005"
    title = "hash()-dependent behaviour"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                function = ctx.enclosing_function(node)
                if function is not None and function.name == "__hash__":
                    continue
                yield ctx.violation(
                    node,
                    self.id,
                    "hash() is salted per process (PYTHONHASHSEED); use "
                    "zlib.crc32 or an explicit key",
                )


def _is_set_expr(node: ast.expr, local_sets: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _SET_CALLS
    ):
        return True
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    return False


def _local_set_names(function: ast.FunctionDef) -> Set[str]:
    """Names assigned from set expressions and never rebound otherwise."""
    candidates: Set[str] = set()
    rebound: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if _is_set_expr(node.value, candidates):
                    candidates.add(target.id)
                else:
                    rebound.add(target.id)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target = node.target
            if isinstance(target, ast.Name):
                rebound.add(target.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            if isinstance(target, ast.Name):
                rebound.add(target.id)
    return candidates - rebound


class BanUnorderedTieBreaks(DeterministicLayerRule):
    """RL006: unordered-container iteration must not feed tie-breaking.

    Invariant protected: *seeded-stream determinism* (and, transitively,
    the Theorem 2 ordering audits: a tie broken by set-iteration order can
    pick a different successor on a different run, producing divergent —
    and unreproducible — routing decisions).  Iterating a ``set`` in a
    ``for`` loop, feeding one to keyed ``min()``/``max()`` (ties resolve
    to whichever element iterates first), or taking ``next(iter(s))``
    must go through ``sorted(...)`` to pin the order.
    """

    id = "RL006"
    title = "unordered iteration feeding a tie-break"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        scopes: list = [ctx.tree]
        scopes.extend(
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.FunctionDef)
        )
        for scope in scopes:
            local_sets = (
                _local_set_names(scope)
                if isinstance(scope, ast.FunctionDef)
                else set()
            )
            for node in ast.walk(scope):
                if isinstance(node, ast.For) and _is_set_expr(
                    node.iter, local_sets
                ):
                    yield ctx.violation(
                        node,
                        self.id,
                        "iterating a set directly; wrap in sorted(...) so "
                        "order cannot depend on hashing",
                    )
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name
                ):
                    if (
                        node.func.id in ("min", "max")
                        and any(kw.arg == "key" for kw in node.keywords)
                        and node.args
                        and _is_set_expr(node.args[0], local_sets)
                    ):
                        yield ctx.violation(
                            node,
                            self.id,
                            "%s(key=...) over a set breaks ties by hash "
                            "order; sort the candidates first" % node.func.id,
                        )
                    elif (
                        node.func.id == "next"
                        and node.args
                        and isinstance(node.args[0], ast.Call)
                        and isinstance(node.args[0].func, ast.Name)
                        and node.args[0].func.id == "iter"
                        and node.args[0].args
                        and _is_set_expr(node.args[0].args[0], local_sets)
                    ):
                        yield ctx.violation(
                            node,
                            self.id,
                            "next(iter(set)) picks an arbitrary element; "
                            "use min()/sorted() for a stable choice",
                        )


DETERMINISM_RULES: Tuple[type, ...] = (
    BanAmbientRandom,
    BanWallClock,
    BanUniqueIds,
    BanIdOrdering,
    BanHashDependence,
    BanUnorderedTieBreaks,
)
