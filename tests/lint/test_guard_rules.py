"""Guarded-update conformance (RL401) on synthetic protocol trees.

The rule is the static face of Theorems 2/4: a successor/fd write in a
feasibility protocol must be dominated by (sn, fd, d) evidence.  The
fixtures cover the adoption idioms the shipped protocols use (inline
compare, NDC predicate, guard-in-helper), a guard that lives only in some
or all of the callers (which does not count), the teardown exemption, and
the opt-out for protocols whose ``route_metric`` does not return the real
triplet.
"""

from repro.lint.guards import GuardedUpdateRule
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

HEADER = (
    "from routing.base import RoutingProtocol\n"
    "\n"
    "\n"
    "class FakeProtocol(RoutingProtocol):\n"
    "    def successor(self, dst):\n"
    "        return self.state[dst].successor\n"
    "\n"
    "    def route_metric(self, dst):\n"
    "        s = self.state[dst]\n"
    "        return (s.sn, s.fd, s.dist)\n"
    "\n"
)


def _run(lint_tree, body, extra=None):
    files = dict(BASE)
    files["protocols/fake.py"] = HEADER + body
    files.update(extra or {})
    return lint_tree(files, rules=[GuardedUpdateRule()])


def test_unguarded_successor_write_fires(lint_tree):
    violations = _run(
        lint_tree,
        "    def on_update(self, dst, nbr, dist):\n"
        "        entry = self.state[dst]\n"
        "        entry.successor = nbr\n",
    )
    assert rule_ids(violations) == ["RL401"]
    assert "'successor'" in violations[0].message
    assert "FakeProtocol.on_update" in violations[0].message


def test_inline_feasibility_compare_is_evidence(lint_tree):
    assert _run(
        lint_tree,
        "    def on_update(self, dst, nbr, adv_sn, adv_dist):\n"
        "        entry = self.state[dst]\n"
        "        if adv_sn == entry.sn and adv_dist < entry.fd:\n"
        "            entry.successor = nbr\n",
    ) == []


def test_ndc_predicate_call_is_evidence(lint_tree):
    assert _run(
        lint_tree,
        "    def on_update(self, dst, nbr, adv):\n"
        "        entry = self.state[dst]\n"
        "        if ndc_accepts(adv, entry):\n"
        "            entry.successor = nbr\n"
        "            entry.fd = adv.dist\n",
    ) == []


def test_guard_inside_helper_body_counts(lint_tree):
    # The `best = self._best_feasible(...)` idiom: the compare lives one
    # call away, in the helper whose result the write consumes.
    assert _run(
        lint_tree,
        "    def on_update(self, dst, nbr):\n"
        "        entry = self.state[dst]\n"
        "        best = self._best_feasible(entry)\n"
        "        if best is not None:\n"
        "            entry.successor = best\n"
        "\n"
        "    def _best_feasible(self, entry):\n"
        "        if entry.dist < entry.fd:\n"
        "            return entry.candidate\n"
        "        return None\n",
    ) == []


def test_guard_in_every_caller_does_not_count(lint_tree):
    # A helper that writes a guarded field must carry its own evidence:
    # guards dominating each of its call sites do not cover its writes.
    violations = _run(
        lint_tree,
        "    def _adopt(self, entry, nbr, dist):\n"
        "        entry.successor = nbr\n"
        "        entry.fd = dist\n"
        "\n"
        "    def on_update(self, dst, nbr, adv_sn, adv_dist):\n"
        "        entry = self.state[dst]\n"
        "        if adv_sn >= entry.sn and adv_dist < entry.fd:\n"
        "            self._adopt(entry, nbr, adv_dist)\n"
        "\n"
        "    def on_reply(self, dst, nbr, adv):\n"
        "        entry = self.state[dst]\n"
        "        if ndc_accepts(adv, entry):\n"
        "            self._adopt(entry, nbr, adv.dist)\n",
    )
    assert rule_ids(violations) == ["RL401", "RL401"]
    assert all("_adopt" in v.message for v in violations)


def test_one_unguarded_caller_breaks_the_fallback(lint_tree):
    # A mixed caller set, one guarded and one not, gives the helper's write
    # no cover from either side: the write fires once, on the helper.
    violations = _run(
        lint_tree,
        "    def _adopt(self, entry, nbr, dist):\n"
        "        entry.successor = nbr\n"
        "\n"
        "    def on_update(self, dst, nbr, adv_sn, adv_dist):\n"
        "        entry = self.state[dst]\n"
        "        if adv_sn >= entry.sn and adv_dist < entry.fd:\n"
        "            self._adopt(entry, nbr, adv_dist)\n"
        "\n"
        "    def on_timer(self, dst, nbr):\n"
        "        entry = self.state[dst]\n"
        "        self._adopt(entry, nbr, 0)\n",
    )
    assert rule_ids(violations) == ["RL401"]
    assert "_adopt" in violations[0].message


def test_teardown_writes_are_exempt(lint_tree):
    assert _run(
        lint_tree,
        "    def on_link_down(self, dst):\n"
        "        entry = self.state[dst]\n"
        "        entry.successor = None\n"
        "        entry.fd = INFINITY\n",
    ) == []


def test_tuple_unpack_adoption_fires(lint_tree):
    # `entry.successor, entry.fd = pick()` is an adoption, not a teardown.
    violations = _run(
        lint_tree,
        "    def on_update(self, dst):\n"
        "        entry = self.state[dst]\n"
        "        entry.successor, entry.fd = self._pick(dst)\n"
        "\n"
        "    def _pick(self, dst):\n"
        "        return None, 0\n",
    )
    assert sorted(rule_ids(violations)) == ["RL401", "RL401"]


def test_non_feasibility_protocol_opts_out(lint_tree):
    # route_metric returning None (the AODV/DSR family) declares the
    # protocol outside the (sn, fd, d) theorems; RL401 stands down.
    files = dict(BASE)
    files["protocols/aodvish.py"] = (
        "from routing.base import RoutingProtocol\n"
        "\n"
        "\n"
        "class AodvIsh(RoutingProtocol):\n"
        "    def successor(self, dst):\n"
        "        return self.table[dst].next_hop\n"
        "\n"
        "    def route_metric(self, dst):\n"
        "        return None\n"
        "\n"
        "    def on_update(self, dst, nbr):\n"
        "        self.table[dst].next_hop = nbr\n"
    )
    assert lint_tree(files, rules=[GuardedUpdateRule()]) == []
