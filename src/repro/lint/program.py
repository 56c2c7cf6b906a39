"""Whole-program model: the one picture of the linted tree every rule reads.

The per-file rules (RL0xx/RL1xx) report one ``ast.Module`` at a time but
resolve names and base classes here; the van Glabbeek/Höfner analyses of
AODV show that the bugs worth finding are exactly the ones that only
appear when locally-plausible functions are *composed*, so the
inter-procedural passes (RL2xx-RL4xx) also walk the call graph.  The
model holds:

* a **module table** — every file under the lint root, keyed by its
  root-relative dotted name (``protocols.aodv.protocol``), with import
  bindings in which *relative* imports are resolved against the module's
  package;
* an **export table** — ``from .a import b as c`` chains are followed to
  a canonical dotted name, so a wall clock laundered through a re-export
  still resolves to ``time.time``;
* a **class hierarchy** — classes keyed by module-qualified name with
  cross-file base resolution and MRO-style method lookup (``protocols``
  subclassing across packages is the norm here, not the exception);
* a **function registry and approximate call graph** — ``self.m()``
  resolved through the hierarchy, bare names through module scope and
  import bindings; enough to answer "can this mutation be reached
  without passing a notification?" and "does this callee eventually fire
  ``table_change_hook``?".  It is built on first use, so a syntactic-only
  run never pays for it.

Everything is stdlib ``ast``; the model is deliberately approximate (no
dataflow through containers, no dynamic dispatch beyond the class
hierarchy) and the rules built on it are written so that approximation
errs toward silence on conformant code and noise only on genuinely
suspicious shapes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: The abstract protocol interface: deriving from it (transitively) marks
#: a class as a routing protocol, but its own stub methods never satisfy
#: the conformance rules.
PROTOCOL_BASE = "RoutingProtocol"


def module_name_for(relpath: str) -> str:
    """Root-relative posix path -> dotted module name.

    ``protocols/aodv/protocol.py`` -> ``protocols.aodv.protocol``;
    a package ``__init__.py`` names the package itself.
    """
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def package_for(module: str, relpath: str) -> str:
    """The package a module's relative imports resolve against."""
    if relpath.endswith("/__init__.py") or relpath == "__init__.py":
        return module
    return module.rsplit(".", 1)[0] if "." in module else ""


def resolve_relative(package: str, level: int, module: Optional[str]) -> Optional[str]:
    """Resolve a ``from ...x import y`` module spec to a dotted name.

    ``level`` counts leading dots; level 1 is the current package.  Walks
    above the lint root return None (the import targets code we cannot
    see, e.g. ``from .. import other_toplevel`` at the root).
    """
    if level <= 0:
        return module
    parts = package.split(".") if package else []
    hops = level - 1
    if hops > len(parts):
        return None
    base = parts[: len(parts) - hops]
    if module:
        base = base + module.split(".")
    return ".".join(base) if base else None


def bindings_for(tree: ast.Module, package: str) -> Dict[str, str]:
    """Local name -> dotted prefix, with relative imports resolved
    against ``package`` (the importing module's own package):
    ``from .compat import clock`` in ``sim/use.py`` binds ``clock`` to
    ``sim.compat.clock``."""
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                bindings[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = resolve_relative(package, node.level, node.module)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings[alias.asname or alias.name] = base + "." + alias.name
    return bindings


@dataclass
class ModuleDecl:
    """One file in the program."""

    relpath: str
    path: Path
    name: str  # dotted, root-relative
    package: str
    layer: str
    tree: ast.Module
    bindings: Dict[str, str] = field(default_factory=dict)
    #: Names this module makes importable, mapped to the dotted name they
    #: stand for (imported names point elsewhere; own defs point here).
    exports: Dict[str, str] = field(default_factory=dict)


@dataclass
class ClassDecl:
    """One class definition, module-qualified."""

    key: str  # "<module>.<name>"
    name: str
    module: str
    node: ast.ClassDef
    #: Base classes as canonical dotted names (may be external).
    bases: Tuple[str, ...]
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class FunctionDecl:
    """A function or method, with a stable program-wide key."""

    key: str  # "<module>:<Class>.<name>" or "<module>:<name>"
    name: str
    module: str
    class_key: Optional[str]
    node: ast.FunctionDef


@dataclass
class CallSite:
    """One resolved edge in the call graph."""

    caller: str
    callee: str
    node: ast.Call


class ProgramModel:
    """Symbol table + hierarchy + call graph over one lint tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleDecl] = {}
        self.by_relpath: Dict[str, ModuleDecl] = {}
        self.classes: Dict[str, ClassDecl] = {}
        #: bare class name -> keys (collisions are real: two _DestState).
        self.class_names: Dict[str, List[str]] = {}
        self.functions: Dict[str, FunctionDecl] = {}
        self.calls: List[CallSite] = []
        self.calls_by_caller: Dict[str, List[CallSite]] = {}
        #: package name of the lint root ("repro" for src/repro), used to
        #: fold absolute ``repro.x.y`` imports onto root-relative names.
        self.root_package: str = ""
        self._protocols: Optional[Tuple[ClassDecl, ...]] = None
        self._notifiers: Optional[Set[str]] = None
        self._calls_built: bool = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        parsed: Sequence[Tuple[Path, str, ast.Module]],
        root_package: str = "",
    ) -> "ProgramModel":
        """Build the model from ``(path, relpath, tree)`` triples."""
        model = cls()
        model.root_package = root_package
        for path, relpath, tree in parsed:
            model._add_module(path, relpath, tree)
        for module in model.modules.values():
            model._index_definitions(module)
        for module in model.modules.values():
            model._resolve_classes(module)
        return model

    def _ensure_calls(self) -> None:
        """Extract the call graph on first use (the syntactic stage never
        needs it; program rules do)."""
        if self._calls_built:
            return
        self._calls_built = True
        for function in list(self.functions.values()):
            self._extract_calls(function)

    def _add_module(self, path: Path, relpath: str, tree: ast.Module) -> None:
        name = module_name_for(relpath)
        package = package_for(name, relpath)
        layer = relpath.split("/", 1)[0] if "/" in relpath else ""
        decl = ModuleDecl(
            relpath=relpath,
            path=path,
            name=name,
            package=package,
            layer=layer,
            tree=tree,
            bindings=bindings_for(tree, package),
        )
        self.modules[name] = decl
        self.by_relpath[relpath] = decl

    def _index_definitions(self, module: ModuleDecl) -> None:
        # Imported names are re-exports; own top-level defs export as
        # themselves (the chain resolver stops there).
        module.exports.update(module.bindings)
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                module.exports[node.name] = (
                    module.name + "." + node.name if module.name else node.name
                )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                key = (module.name + "." if module.name else "") + node.name
                methods = {
                    item.name: item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
                self.classes[key] = ClassDecl(
                    key=key,
                    name=node.name,
                    module=module.name,
                    node=node,
                    bases=(),
                    methods=methods,
                )
                self.class_names.setdefault(node.name, []).append(key)
                for name, fn in methods.items():
                    fkey = "%s:%s.%s" % (module.name, node.name, name)
                    self.functions[fkey] = FunctionDecl(
                        key=fkey,
                        name=name,
                        module=module.name,
                        class_key=key,
                        node=fn,
                    )
        for node in module.tree.body:
            if isinstance(node, ast.FunctionDef):
                fkey = "%s:%s" % (module.name, node.name)
                self.functions[fkey] = FunctionDecl(
                    key=fkey,
                    name=node.name,
                    module=module.name,
                    class_key=None,
                    node=node,
                )

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def _fold_root(self, dotted: str) -> str:
        """Map absolute ``<root_package>.x.y`` names onto root-relative."""
        if self.root_package and dotted.startswith(self.root_package + "."):
            return dotted[len(self.root_package) + 1:]
        return dotted

    def canonical(self, dotted: str, _depth: int = 0) -> str:
        """Follow export chains to a canonical dotted name.

        ``sim.compat.now`` -> (compat re-exports ``now`` from ``time``)
        -> ``time.time``.  Names that never touch a known module are
        returned unchanged — they are external (stdlib or third-party)
        and already canonical.
        """
        if _depth > 16:  # import cycle: give up, report as-is
            return dotted
        dotted = self._fold_root(dotted)
        parts = dotted.split(".")
        # Longest known-module prefix wins (modules shadow attributes).
        for cut in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is None:
                continue
            head, rest = parts[cut], parts[cut + 1:]
            target = module.exports.get(head)
            if target is None:
                return dotted
            if target == ".".join(parts[:cut + 1]):
                resolved = target  # an own definition exports as itself
            else:
                resolved = self.canonical(target, _depth + 1)
            return ".".join([resolved] + rest) if rest else resolved
        return dotted

    def resolve_class(self, dotted: str, from_module: str = "") -> Optional[str]:
        """Canonical dotted name -> class key, if it names a known class."""
        canonical = self.canonical(dotted)
        if canonical in self.classes:
            return canonical
        # A bare (or trailing) name: prefer the referencing module, then a
        # globally unique bare-name match.
        bare = canonical.rsplit(".", 1)[-1]
        if from_module:
            local = (from_module + "." if from_module else "") + bare
            if local in self.classes:
                return local
        keys = self.class_names.get(bare, [])
        if len(keys) == 1:
            return keys[0]
        return None

    def _resolve_classes(self, module: ModuleDecl) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            key = (module.name + "." if module.name else "") + node.name
            decl = self.classes.get(key)
            if decl is None:
                continue
            names = (self.canonical_name(base, module) for base in node.bases)
            decl.bases = tuple(name for name in names if name is not None)

    def canonical_name(self, node: ast.expr, module: ModuleDecl) -> Optional[str]:
        """The canonical dotted name ``a.b.c`` spells in ``module``: its
        head resolved through the module's import bindings, the whole
        chased through export chains.  None unless ``node`` is a name or
        an attribute chain rooted at one."""
        parts: List[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(module.bindings.get(current.id, current.id))
        return self.canonical(".".join(reversed(parts)))

    # ------------------------------------------------------------------
    # hierarchy queries
    # ------------------------------------------------------------------
    def mro(self, class_key: str) -> List[str]:
        """Approximate linearization: BFS over known base classes."""
        order: List[str] = []
        seen: Set[str] = set()
        queue = [class_key]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            decl = self.classes.get(current)
            if decl is None:
                continue
            order.append(current)
            for base in decl.bases:
                resolved = self.resolve_class(base, decl.module)
                if resolved is not None:
                    queue.append(resolved)
        return order

    def is_routing_protocol(self, class_key: str) -> bool:
        """True when the class transitively derives from RoutingProtocol."""
        seen: Set[str] = set()
        queue = [class_key]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            decl = self.classes.get(current)
            if decl is None:
                continue
            for base in decl.bases:
                if base.rsplit(".", 1)[-1] == PROTOCOL_BASE:
                    return True
                resolved = self.resolve_class(base, decl.module)
                if resolved is not None:
                    queue.append(resolved)
        return False

    def protocol_classes(self) -> Tuple[ClassDecl, ...]:
        """Every concrete protocol class (excluding the abstract base), in
        key order; computed once per model."""
        if self._protocols is None:
            self._protocols = tuple(
                self.classes[key]
                for key in sorted(self.classes)
                if self.classes[key].name != PROTOCOL_BASE
                and self.is_routing_protocol(key)
            )
        return self._protocols

    def resolve_method(
        self, class_key: str, method: str, include_base: bool = False
    ) -> Optional[Tuple[ClassDecl, ast.FunctionDef]]:
        """Find ``method`` on the class or an ancestor, across files.

        The RoutingProtocol base's own stubs are excluded by default —
        inheriting them silently is what the conformance rules forbid.
        """
        for key in self.mro(class_key):
            decl = self.classes[key]
            if not include_base and decl.name == PROTOCOL_BASE:
                continue
            if method in decl.methods:
                return decl, decl.methods[method]
        return None

    def methods_of(self, class_key: str) -> Iterator[Tuple[ClassDecl, ast.FunctionDef]]:
        """Every method visible on the class (own first, then inherited);
        an overridden name appears only once, at its resolving class."""
        seen: Set[str] = set()
        for key in self.mro(class_key):
            decl = self.classes[key]
            for name in sorted(decl.methods):
                if name in seen:
                    continue
                seen.add(name)
                yield decl, decl.methods[name]

    def function_key(
        self, class_decl: Optional[ClassDecl], fn: ast.FunctionDef, module: str
    ) -> str:
        if class_decl is not None:
            return "%s:%s.%s" % (class_decl.module, class_decl.name, fn.name)
        return "%s:%s" % (module, fn.name)

    # ------------------------------------------------------------------
    # call graph
    # ------------------------------------------------------------------
    def _extract_calls(self, function: FunctionDecl) -> None:
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self.resolve_call(node, function)
            if callee is None:
                continue
            site = CallSite(caller=function.key, callee=callee, node=node)
            self.calls.append(site)
            self.calls_by_caller.setdefault(function.key, []).append(site)

    def resolve_call(self, node: ast.Call, function: FunctionDecl) -> Optional[str]:
        """Key of the function a call inside ``function`` reaches, if it
        resolves statically: ``self.m()`` through the class hierarchy, a
        bare name to a same-module function, anything else through the
        module's import bindings and export chains."""
        module = self.modules[function.module]
        func = node.func
        if isinstance(func, ast.Name):
            local = "%s:%s" % (module.name, func.id)
            if local in self.functions:
                return local
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and function.class_key is not None
        ):
            resolved = self.resolve_method(
                function.class_key, func.attr, include_base=True
            )
            if resolved is None:
                return None
            decl, fn = resolved
            return self.function_key(decl, fn, decl.module)
        dotted = self.canonical_name(func, module)
        if dotted is None or "." not in dotted:
            return None
        mod, name = dotted.rsplit(".", 1)
        key = "%s:%s" % (mod, name)
        if key in self.functions:
            return key
        # module.Class.method form
        if "." in mod:
            outer, klass = mod.rsplit(".", 1)
            key = "%s:%s.%s" % (outer, klass, name)
            if key in self.functions:
                return key
        return None

    def calls_in(self, function_key: str) -> List[CallSite]:
        self._ensure_calls()
        return self.calls_by_caller.get(function_key, [])

    # ------------------------------------------------------------------
    # table-change notifications (RL103, RL301)
    # ------------------------------------------------------------------
    #: Attribute names whose invocation constitutes a table-change
    #: notification, directly.
    NOTIFY_ATTRS = frozenset({"_notify_table_change", "table_change_hook"})

    @classmethod
    def hook_calls(cls, node: ast.AST) -> List[ast.Call]:
        """Direct notifications (``x.<NOTIFY_ATTRS>(...)``) inside ``node``."""
        return [
            sub
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in cls.NOTIFY_ATTRS
        ]

    def notifiers(self) -> Set[str]:
        """Function keys that (transitively) fire a table-change hook.

        Fixpoint over the call graph: a function notifies when it invokes
        ``_notify_table_change``/``table_change_hook`` on anything, or
        calls a function that does.
        """
        if self._notifiers is not None:
            return self._notifiers
        self._ensure_calls()
        closure = {
            key
            for key, function in self.functions.items()
            if self.hook_calls(function.node)
        }
        changed = True
        while changed:
            changed = False
            for site in self.calls:
                if site.callee in closure and site.caller not in closure:
                    closure.add(site.caller)
                    changed = True
        self._notifiers = closure
        return closure
