"""Hook-bypass reachability (RL301) on synthetic protocol trees.

Each fixture is the smallest program exhibiting one of the indirect
mutation paths RL103 cannot see — a local alias, a helper handed the
table (or ``self``), a mixin method defined in another file — plus the
conformant twin proving the rule stays silent when the invariant
monitor is actually told.
"""

from repro.lint.reachability import RequireReachableNotify
from tests.lint.conftest import rule_ids

BASE = {
    "routing/base.py": (
        "class RoutingProtocol:\n"
        "    def successor(self, dst):\n"
        "        raise NotImplementedError\n"
        "    def route_metric(self, dst):\n"
        "        raise NotImplementedError\n"
    ),
}


def _run(lint_tree, files):
    merged = dict(BASE)
    merged.update(files)
    return lint_tree(merged, rules=[RequireReachableNotify()])


def _proto(body):
    return (
        "from routing.base import RoutingProtocol\n"
        "\n"
        "\n"
        "class FakeProtocol(RoutingProtocol):\n"
        "    def successor(self, dst):\n"
        "        entry = self.table.get(dst)\n"
        "        return entry.next_hop if entry else None\n"
        "\n" + body
    )


def test_alias_mutation_without_notify_fires(lint_tree):
    violations = _run(lint_tree, {
        "protocols/fake.py": _proto(
            "    def adopt(self, dst, entry):\n"
            "        t = self.table\n"
            "        t[dst] = entry\n"
        ),
    })
    assert rule_ids(violations) == ["RL301"]
    assert "local alias" in violations[0].message


def test_alias_mutation_followed_by_notify_is_silent(lint_tree):
    assert _run(lint_tree, {
        "protocols/fake.py": _proto(
            "    def adopt(self, dst, entry):\n"
            "        t = self.table\n"
            "        t[dst] = entry\n"
            "        self._notify_table_change(dst)\n"
        ),
    }) == []


def test_call_into_notify_closure_clears_the_mutation(lint_tree):
    # _announce is not the hook itself, but it transitively fires it:
    # the fixpoint closure must count it as notification.
    assert _run(lint_tree, {
        "protocols/fake.py": _proto(
            "    def adopt(self, dst, entry):\n"
            "        t = self.table\n"
            "        t[dst] = entry\n"
            "        self._announce(dst)\n"
            "\n"
            "    def _announce(self, dst):\n"
            "        self._notify_table_change(dst)\n"
        ),
    }) == []


def test_helper_argument_mutation_fires(lint_tree):
    # The RL103 loophole this PR closes: the method's own body never
    # touches self.table, the helper it calls does.
    violations = _run(lint_tree, {
        "protocols/fake.py": _proto(
            "    def expire(self, dst):\n"
            "        _drop(self.table, dst)\n"
            "\n"
            "\n"
            "def _drop(table, dst):\n"
            "    del table[dst]\n"
        ),
    })
    assert rule_ids(violations) == ["RL301"]
    assert "_drop" in violations[0].message


def test_helper_passed_self_mutation_fires(lint_tree):
    violations = _run(lint_tree, {
        "protocols/fake.py": _proto(
            "    def expire(self, dst):\n"
            "        _reset(self)\n"
            "\n"
            "\n"
            "def _reset(proto):\n"
            "    proto.table.clear()\n"
        ),
    })
    assert rule_ids(violations) == ["RL301"]


def test_helper_mutation_with_notify_after_call_is_silent(lint_tree):
    assert _run(lint_tree, {
        "protocols/fake.py": _proto(
            "    def expire(self, dst):\n"
            "        _drop(self.table, dst)\n"
            "        self._notify_table_change(dst)\n"
            "\n"
            "\n"
            "def _drop(table, dst):\n"
            "    del table[dst]\n"
        ),
    }) == []


def test_inherited_mixin_mutation_fires_across_files(lint_tree):
    violations = _run(lint_tree, {
        "core/mixins.py": (
            "class TableMixin:\n"
            "    def wipe(self):\n"
            "        self.table.clear()\n"
        ),
        "protocols/fake.py": (
            "from core.mixins import TableMixin\n"
            "from routing.base import RoutingProtocol\n"
            "\n"
            "\n"
            "class FakeProtocol(TableMixin, RoutingProtocol):\n"
            "    def successor(self, dst):\n"
            "        entry = self.table.get(dst)\n"
            "        return entry.next_hop if entry else None\n"
        ),
    })
    assert rule_ids(violations) == ["RL301"]
    assert "inherited" in violations[0].message
    # The finding lands in the mixin's file, where the fix belongs.
    assert violations[0].path.endswith("core/mixins.py")


def test_notifying_mixin_is_silent(lint_tree):
    assert _run(lint_tree, {
        "core/mixins.py": (
            "class TableMixin:\n"
            "    def wipe(self):\n"
            "        self.table.clear()\n"
            "        self._notify_table_change(None)\n"
        ),
        "protocols/fake.py": (
            "from core.mixins import TableMixin\n"
            "from routing.base import RoutingProtocol\n"
            "\n"
            "\n"
            "class FakeProtocol(TableMixin, RoutingProtocol):\n"
            "    def successor(self, dst):\n"
            "        entry = self.table.get(dst)\n"
            "        return entry.next_hop if entry else None\n"
        ),
    }) == []


def test_non_protocol_class_is_out_of_scope(lint_tree):
    # A class that never enters the RoutingProtocol hierarchy can alias
    # whatever it likes; the invariant monitor never watches it.
    assert _run(lint_tree, {
        "protocols/cache.py": (
            "class NeighborCache:\n"
            "    def successor(self, dst):\n"
            "        return self.table.get(dst)\n"
            "    def put(self, dst, entry):\n"
            "        t = self.table\n"
            "        t[dst] = entry\n"
        ),
    }) == []
