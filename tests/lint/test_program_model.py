"""Unit tests for the whole-program model (``repro.lint.program``).

The model is the substrate every RL2xx/RL3xx/RL4xx pass stands on, so
its name resolution, hierarchy walks, and call graph are pinned here
directly, on small synthetic trees, independent of any rule.
"""

import ast
from pathlib import Path

from repro.lint.program import (
    ProgramModel,
    module_name_for,
    resolve_relative,
)


def _model(files, root_package="repro"):
    parsed = [
        (Path("/fixture") / rel, rel, ast.parse(src))
        for rel, src in files.items()
    ]
    return ProgramModel.build(parsed, root_package=root_package)


def test_module_names_are_root_relative_dotted():
    assert module_name_for("protocols/dual/protocol.py") == (
        "protocols.dual.protocol"
    )
    assert module_name_for("sim/rng.py") == "sim.rng"
    # A package's __init__ is addressed by the package name itself.
    assert module_name_for("core/__init__.py") == "core"


def test_resolve_relative():
    # level 1: sibling of the importing module's package.
    assert resolve_relative("sim", 1, "compat") == "sim.compat"
    # level 2: one package up.
    assert (
        resolve_relative("protocols.dual", 2, "base") == "protocols.base"
    )
    # `from . import x` resolves to the package itself.
    assert resolve_relative("sim", 1, None) == "sim"
    # Escaping above the lint root is unresolvable, not an error.
    assert resolve_relative("sim", 3, "x") is None


def test_canonical_follows_reexport_chains():
    model = _model({
        "sim/compat.py": "from time import time as now\n",
        "sim/use.py": "from sim.compat import now\n",
    })
    # Chased through the re-export, the local name is still a wall clock.
    assert model.canonical("sim.compat.now") == "time.time"
    assert model.canonical("sim.use.now") == "time.time"
    # Absolute spellings through the root package fold onto the same name.
    assert model.canonical("repro.sim.compat.now") == "time.time"
    # External names pass through untouched.
    assert model.canonical("math.sqrt") == "math.sqrt"


def test_canonical_survives_import_cycles():
    model = _model({
        "a.py": "from b import thing\n",
        "b.py": "from a import thing\n",
    })
    # A cyclic re-export terminates (depth guard) instead of recursing.
    assert isinstance(model.canonical("a.thing"), str)


def test_canonical_stops_at_an_own_definition():
    model = _model({
        "routing/base.py": "class RoutingProtocol:\n    pass\n",
        "routing/__init__.py": "from routing.base import RoutingProtocol\n",
    })
    canonical = model.canonical
    calls = []

    def counting(dotted, _depth=0):
        calls.append(dotted)
        return canonical(dotted, _depth)

    model.canonical = counting  # the recursion goes through the instance
    # An own definition exports as itself: one lookup, not a recursion
    # down to the depth guard.
    assert model.canonical("routing.base.RoutingProtocol") == (
        "routing.base.RoutingProtocol"
    )
    assert len(calls) == 1
    # A re-export is one more hop.
    del calls[:]
    assert model.canonical("routing.RoutingProtocol") == (
        "routing.base.RoutingProtocol"
    )
    assert calls == ["routing.RoutingProtocol", "routing.base.RoutingProtocol"]


def test_protocol_hierarchy_across_files():
    model = _model({
        "routing/base.py": (
            "class RoutingProtocol:\n"
            "    def successor(self, dst):\n"
            "        raise NotImplementedError\n"
        ),
        "protocols/mix.py": (
            "class TableMixin:\n"
            "    def wipe(self):\n"
            "        self.table.clear()\n"
        ),
        "protocols/fake.py": (
            "from routing.base import RoutingProtocol\n"
            "from protocols.mix import TableMixin\n"
            "class FakeProtocol(TableMixin, RoutingProtocol):\n"
            "    def successor(self, dst):\n"
            "        return self.table.get(dst)\n"
        ),
    })
    key = "protocols.fake.FakeProtocol"
    assert model.is_routing_protocol(key)
    assert not model.is_routing_protocol("protocols.mix.TableMixin")
    # The abstract base is not itself reported as a protocol.
    assert [d.key for d in model.protocol_classes()] == [key]
    assert model.mro(key) == [
        key,
        "protocols.mix.TableMixin",
        "routing.base.RoutingProtocol",
    ]


def test_resolve_method_and_methods_of():
    model = _model({
        "routing/base.py": (
            "class RoutingProtocol:\n"
            "    def successor(self, dst):\n"
            "        raise NotImplementedError\n"
        ),
        "protocols/mix.py": (
            "class TableMixin:\n"
            "    def wipe(self):\n"
            "        self.table.clear()\n"
            "    def successor(self, dst):\n"
            "        return None\n"
        ),
        "protocols/fake.py": (
            "from routing.base import RoutingProtocol\n"
            "from protocols.mix import TableMixin\n"
            "class FakeProtocol(TableMixin, RoutingProtocol):\n"
            "    def successor(self, dst):\n"
            "        return self.table.get(dst)\n"
        ),
    })
    key = "protocols.fake.FakeProtocol"
    # Own method wins over the mixin's; base stubs are excluded by default.
    owner, fn = model.resolve_method(key, "successor")
    assert owner.key == key
    assert model.resolve_method(key, "wipe")[0].key == (
        "protocols.mix.TableMixin"
    )
    assert model.resolve_method(key, "route_metric") is None
    # methods_of lists each visible name exactly once, at its resolver.
    resolved = {
        fn.name: owner.key for owner, fn in model.methods_of(key)
    }
    assert resolved == {
        "successor": key,
        "wipe": "protocols.mix.TableMixin",
    }


def test_call_graph_resolves_self_and_module_calls():
    model = _model({
        "protocols/fake.py": (
            "def helper(x):\n"
            "    return x\n"
            "class Proto:\n"
            "    def a(self):\n"
            "        self.b()\n"
            "        helper(1)\n"
            "    def b(self):\n"
            "        pass\n"
        ),
    })
    callees = {
        site.callee for site in model.calls_in("protocols.fake:Proto.a")
    }
    assert callees == {"protocols.fake:Proto.b", "protocols.fake:helper"}


def test_notifiers_fixpoint_includes_transitive_wrappers():
    model = _model({
        "protocols/fake.py": (
            "class Proto:\n"
            "    def direct(self):\n"
            "        self._notify_table_change(0)\n"
            "    def wrapper(self):\n"
            "        self.direct()\n"
            "    def unrelated(self):\n"
            "        pass\n"
        ),
    })
    notifiers = model.notifiers()
    assert "protocols.fake:Proto.direct" in notifiers
    assert "protocols.fake:Proto.wrapper" in notifiers
    assert "protocols.fake:Proto.unrelated" not in notifiers
