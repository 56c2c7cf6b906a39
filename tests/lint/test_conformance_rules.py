"""Conformance rules (RL101-RL103) against synthetic protocol trees."""

import pathlib

from tests.lint.conftest import rule_ids

PROTO = "protocols/fake.py"

CONFORMING = """
from repro.routing.base import RoutingProtocol


class GoodProtocol(RoutingProtocol):
    def successor(self, dst):
        entry = self.table.get(dst)
        return entry[0] if entry else None

    def route_metric(self, dst):
        entry = self.table.get(dst)
        if entry is None:
            return None
        return (entry[1], entry[2], entry[3])

    def adopt(self, dst, via, sn, fd, d):
        self.table[dst] = (via, sn, fd, d)
        self._notify_table_change(dst)
"""


def test_conforming_protocol_is_clean(lint_tree):
    assert rule_ids(lint_tree({PROTO: CONFORMING})) == []


def test_rl101_missing_successor(lint_tree):
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class Silent(RoutingProtocol):\n"
        "    def route_metric(self, dst):\n"
        "        return None\n"
    )
    assert "RL101" in rule_ids(lint_tree({PROTO: source}))


def test_rl102_missing_route_metric(lint_tree):
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class Silent(RoutingProtocol):\n"
        "    def successor(self, dst):\n"
        "        return None\n"
    )
    assert "RL102" in rule_ids(lint_tree({PROTO: source}))


def test_rl102_wrong_tuple_shape(lint_tree):
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class TwoTuple(RoutingProtocol):\n"
        "    def successor(self, dst):\n"
        "        return None\n\n"
        "    def route_metric(self, dst):\n"
        "        return (1, 2)\n"
    )
    assert "RL102" in rule_ids(lint_tree({PROTO: source}))


def test_conformance_via_inherited_base(lint_tree):
    # NsrProtocol-style: deriving from an analysed conforming class counts.
    derived = (
        "from repro.protocols.goodmod import GoodProtocol\n\n\n"
        "class Derived(GoodProtocol):\n"
        "    pass\n"
    )
    violations = lint_tree(
        {"protocols/goodmod.py": CONFORMING, "protocols/derived.py": derived}
    )
    assert rule_ids(violations) == []


def test_inheriting_only_the_base_stub_does_not_count(lint_tree):
    # RoutingProtocol's own stubs are exactly the silent opt-out the
    # rules forbid; an empty subclass must still be flagged.
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class Empty(RoutingProtocol):\n"
        "    pass\n"
    )
    ids = rule_ids(lint_tree({PROTO: source}))
    assert "RL101" in ids and "RL102" in ids


EMPTY_TABLE_PROTOCOL = (
    "from repro.routing.base import RoutingProtocol\n\n\n"
    "class Table(RoutingProtocol):\n"
    "    pass\n"
)
UNRELATED_TABLE = "class Table:\n    pass\n"


def _located(violations):
    return sorted(
        (v.rule_id, pathlib.Path(v.path).name, v.line) for v in violations
    )


def test_same_named_class_elsewhere_does_not_hide_a_protocol(lint_tree):
    # Classes are keyed by module: an unrelated `Table` in a file that
    # sorts later must not shadow the protocol of the same bare name.
    violations = lint_tree(
        {
            "protocols/a_proto.py": EMPTY_TABLE_PROTOCOL,
            "protocols/z_other.py": UNRELATED_TABLE,
        }
    )
    assert _located(violations) == [
        ("RL101", "a_proto.py", 4),
        ("RL102", "a_proto.py", 4),
    ]


def test_same_named_protocol_elsewhere_does_not_flag_a_helper(lint_tree):
    # ...nor may a protocol's bare name draw the rules onto an unrelated
    # helper class in another file.
    violations = lint_tree(
        {
            "protocols/a_helper.py": UNRELATED_TABLE,
            "protocols/b_proto.py": EMPTY_TABLE_PROTOCOL,
        }
    )
    assert _located(violations) == [
        ("RL101", "b_proto.py", 4),
        ("RL102", "b_proto.py", 4),
    ]


def test_rl103_mutation_without_notify(lint_tree):
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class Sneaky(RoutingProtocol):\n"
        "    def successor(self, dst):\n"
        "        return self.table.get(dst)\n\n"
        "    def route_metric(self, dst):\n"
        "        return None\n\n"
        "    def adopt(self, dst, via):\n"
        "        self.table[dst] = via\n"
    )
    assert "RL103" in rule_ids(lint_tree({PROTO: source}))


def test_rl103_delete_without_notify(lint_tree):
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class Sneaky(RoutingProtocol):\n"
        "    def successor(self, dst):\n"
        "        return self.table.get(dst)\n\n"
        "    def route_metric(self, dst):\n"
        "        return None\n\n"
        "    def expire(self, dst):\n"
        "        del self.table[dst]\n"
    )
    assert "RL103" in rule_ids(lint_tree({PROTO: source}))


def test_rl103_deleting_the_table_attribute_without_notify(lint_tree):
    # Deleting the attribute changes what successor() reads, exactly as
    # rebinding it does.
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class Sneaky(RoutingProtocol):\n"
        "    def successor(self, dst):\n"
        "        return self.table.get(dst)\n\n"
        "    def route_metric(self, dst):\n"
        "        return None\n\n"
        "    def reset(self):\n"
        "        del self.table\n"
    )
    assert "RL103" in rule_ids(lint_tree({PROTO: source}))


def test_rl103_notify_after_mutation_passes(lint_tree):
    assert "RL103" not in rule_ids(lint_tree({PROTO: CONFORMING}))


def test_rl103_notify_in_same_loop_passes(lint_tree):
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class Looper(RoutingProtocol):\n"
        "    def successor(self, dst):\n"
        "        return self.table.get(dst)\n\n"
        "    def route_metric(self, dst):\n"
        "        return None\n\n"
        "    def refresh(self, updates):\n"
        "        for dst, via in updates:\n"
        "            self._notify_table_change(dst)\n"
        "            self.table[dst] = via\n"
    )
    assert "RL103" not in rule_ids(lint_tree({PROTO: source}))


def test_rl103_init_is_exempt(lint_tree):
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class Fresh(RoutingProtocol):\n"
        "    def __init__(self, sim, node, metrics=None):\n"
        "        super().__init__(sim, node, metrics)\n"
        "        self.table = {}\n\n"
        "    def successor(self, dst):\n"
        "        return self.table.get(dst)\n\n"
        "    def route_metric(self, dst):\n"
        "        return None\n"
    )
    assert "RL103" not in rule_ids(lint_tree({PROTO: source}))


def test_rl103_untracked_attributes_ignored(lint_tree):
    # Only state the successor graph is built from is a "routing table";
    # per-neighbor bookkeeping may change without notifying.
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class Bookkeeper(RoutingProtocol):\n"
        "    def successor(self, dst):\n"
        "        return self.table.get(dst)\n\n"
        "    def route_metric(self, dst):\n"
        "        return None\n\n"
        "    def heard(self, neighbor, now):\n"
        "        self.hello_heard[neighbor] = now\n"
    )
    assert "RL103" not in rule_ids(lint_tree({PROTO: source}))


def test_conformance_rules_skip_non_protocol_layers(lint_tree):
    # A RoutingProtocol subclass in a tools/ tree is out of scope.
    source = (
        "from repro.routing.base import RoutingProtocol\n\n\n"
        "class Scratch(RoutingProtocol):\n"
        "    pass\n"
    )
    assert rule_ids(lint_tree({"tools/scratch.py": source})) == []
