"""Unit tests for the successor-graph loop audit.

The engine functions are exercised directly; the tests at the end drive
them through the strict :class:`~repro.faults.monitor.InvariantMonitor`,
the one auditor that runs them.
"""

import pytest

from repro.faults import InvariantMonitor, InvariantViolation
from repro.routing.loopcheck import (
    first_breach,
    ownership_breaches,
    raise_ceiling,
    reaches,
)


class _FakeProtocol:
    """Scriptable routing table for auditing."""

    def __init__(self, node_id, successors=None, metrics=None):
        self.node_id = node_id
        self._successors = successors or {}
        self._metrics = metrics or {}
        self.table_change_hook = None

    def successor(self, dst):
        return self._successors.get(dst)

    def route_metric(self, dst):
        return self._metrics.get(dst)


class _Clock:
    now = 0.0


def _tables(*protos):
    return {p.node_id: p for p in protos}


def _breach(protos, check_ordering=True):
    """The first loop/ordering breach toward destination 0, or None."""
    return first_breach(_tables(*protos), 0, check_ordering=check_ordering)


def _strict_monitor(protos, check_ordering=True):
    return InvariantMonitor(_Clock(), _tables(*protos),
                            check_ordering=check_ordering, strict=True)


def test_acyclic_tree_passes():
    # 1 -> 2 -> 3 -> dst(0); 4 -> 2.
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}),
        _FakeProtocol(2, {0: 3}),
        _FakeProtocol(3, {0: 0}),
        _FakeProtocol(4, {0: 2}),
    ]
    assert _breach(protos, check_ordering=False) is None


def test_two_node_loop_detected():
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}),
        _FakeProtocol(2, {0: 1}),
    ]
    assert _breach(protos, check_ordering=False).kind == "loop"


def test_three_node_loop_detected():
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}),
        _FakeProtocol(2, {0: 3}),
        _FakeProtocol(3, {0: 1}),
    ]
    assert _breach(protos, check_ordering=False).kind == "loop"


def test_self_loop_detected():
    protos = [_FakeProtocol(0), _FakeProtocol(1, {0: 1})]
    assert _breach(protos, check_ordering=False).kind == "loop"


def test_dangling_successor_is_not_a_loop():
    protos = [_FakeProtocol(0), _FakeProtocol(1, {0: 99})]
    assert _breach(protos, check_ordering=False) is None


def test_ordering_violation_equal_sn_nondecreasing_fd():
    # 1 -> 2 with equal sequence numbers but fd(2) >= fd(1): violation.
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}, {0: (5, 3, 4)}),
        _FakeProtocol(2, {0: 0}, {0: (5, 3, 3)}),
    ]
    assert _breach(protos).kind == "ordering"


def test_ordering_ok_with_decreasing_fd():
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}, {0: (5, 3, 4)}),
        _FakeProtocol(2, {0: 0}, {0: (5, 2, 2)}),
    ]
    assert _breach(protos) is None


def test_ordering_ok_with_fresher_downstream_sn():
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}, {0: (5, 3, 4)}),
        _FakeProtocol(2, {0: 0}, {0: (6, 9, 9)}),  # newer sn resets fd
    ]
    assert _breach(protos) is None


def test_ordering_violation_older_downstream_sn():
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}, {0: (6, 3, 4)}),
        _FakeProtocol(2, {0: 0}, {0: (5, 1, 1)}),
    ]
    assert _breach(protos).kind == "ordering"


def test_loop_error_names_the_cycle():
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}),
        _FakeProtocol(2, {0: 3}),
        _FakeProtocol(3, {0: 2}),  # 2 -> 3 -> 2, entered from 1
    ]
    with pytest.raises(InvariantViolation) as excinfo:
        _strict_monitor(protos, check_ordering=False).check_all([0])
    # The message pinpoints the cycle, not the entry path.
    assert "[2, 3, 2]" in str(excinfo.value)


def test_ordering_violation_mid_chain_detected():
    # 1 -> 2 is healthy; the older-sn hop hides at 2 -> 3, mid-walk.
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}, {0: (7, 4, 5)}),
        _FakeProtocol(2, {0: 3}, {0: (7, 3, 3)}),
        _FakeProtocol(3, {0: 0}, {0: (6, 1, 1)}),  # down_sn < up_sn
    ]
    breach = _breach(protos)
    assert breach.kind == "ordering"
    assert "2(sn=7) uses 3(sn=6)" in breach.detail


def test_ordering_violation_recorded_in_violations_list():
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}, {0: (6, 3, 4)}),
        _FakeProtocol(2, {0: 0}, {0: (5, 1, 1)}),
    ]
    monitor = _strict_monitor(protos)
    with pytest.raises(InvariantViolation):
        monitor.check_all([0])
    # Recorded before raising, so callers that absorb the error see it.
    assert monitor.violations == [
        (0.0, "ordering", "ordering violated toward 0: 1(sn=6) uses 2(sn=5)")]


def test_equal_sn_equal_fd_is_a_violation():
    # FDC requires *strict* decrease at equal sn; fd equality along a hop
    # would allow the mutual-successor pattern the paper's SDC forbids.
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}, {0: (5, 3, 4)}),
        _FakeProtocol(2, {0: 0}, {0: (5, 3, 3)}),
    ]
    assert _breach(protos).kind == "ordering"


def test_early_advance_then_fd_ordering_resumes_downstream():
    # 2 advanced past 1 (down_sn > up_sn: benign), and 2 -> 3 must again
    # satisfy the equal-sn strict-fd decrease.  Nothing breaches here.
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}, {0: (5, 3, 4)}),
        _FakeProtocol(2, {0: 3}, {0: (6, 9, 9)}),
        _FakeProtocol(3, {0: 0}, {0: (6, 2, 2)}),
    ]
    assert _breach(protos) is None


def test_missing_metric_skips_ordering_but_still_walks():
    # A protocol returning route_metric=None is audited for acyclicity
    # only — and a loop must still be caught on that same walk.
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}),  # no metrics at all
        _FakeProtocol(2, {0: 1}),
    ]
    assert _breach(protos).kind == "loop"


def test_hop_into_destination_is_not_ordering_checked():
    # The destination's own metric (sn resets, fd 0) never constrains the
    # last hop; only intermediate hops are compared.
    protos = [
        _FakeProtocol(0, {}, {0: (0, 0, 0)}),
        _FakeProtocol(1, {0: 0}, {0: (9, 1, 1)}),
    ]
    assert _breach(protos) is None


def test_check_ordering_false_ignores_metric_violations():
    protos = [
        _FakeProtocol(0),
        _FakeProtocol(1, {0: 2}, {0: (6, 3, 4)}),
        _FakeProtocol(2, {0: 0}, {0: (5, 1, 1)}),  # would violate ordering
    ]
    monitor = _strict_monitor(protos, check_ordering=False)
    monitor.check_all([0])
    assert monitor.violations == []


def test_install_wires_hooks():
    protos = [_FakeProtocol(0), _FakeProtocol(1, {0: 0})]
    monitor = _strict_monitor(protos, check_ordering=False).install()
    assert all(p.table_change_hook is not None for p in protos)
    protos[1].table_change_hook(protos[1], 0)
    assert monitor.checks_run == 1


def test_check_all_covers_destinations():
    protos = [_FakeProtocol(0), _FakeProtocol(1, {0: 0, 2: 0}), _FakeProtocol(2)]
    monitor = _strict_monitor(protos, check_ordering=False)
    monitor.check_all([0, 2])
    assert monitor.checks_run == 2


def test_first_breach_reports_kind_and_detail():
    tables = _tables(_FakeProtocol(0), _FakeProtocol(1, {0: 2}),
                     _FakeProtocol(2, {0: 1}))
    breach = first_breach(tables, 0, check_ordering=False)
    assert breach.kind == "loop"
    assert breach.detail == "routing loop for destination 0: [1, 2, 1]"
    assert first_breach(_tables(_FakeProtocol(0)), 0) is None


def test_walk_follows_mapping_order():
    # Two disjoint loops: the first start in iteration order names it.
    one, two = _FakeProtocol(1, {0: 1}), _FakeProtocol(2, {0: 2})
    assert "[2, 2]" in first_breach(_tables(two, one), 0).detail
    assert "[1, 1]" in first_breach(_tables(one, two), 0).detail


def test_ownership_breaches_skip_destination_and_incomparable_labels():
    tables = _tables(
        _FakeProtocol(0, {}, {0: (99, 0, 0)}),       # the destination itself
        _FakeProtocol(1, {0: 0}, {0: (7, 1, 1)}),    # above the ceiling
        _FakeProtocol(2, {0: 0}, {0: ("x", 1, 1)}),  # label type differs
        _FakeProtocol(3, {0: 0}, {0: (None, 1, 1)}),
        _FakeProtocol(4, {0: 0}, {0: (5, 1, 1)}),    # at the ceiling
    )
    assert ownership_breaches(tables, 0, 5) == [
        "node 1 holds sn=7 for 0 but the destination only ever issued up to 5"]
    assert ownership_breaches(tables, 0, None) == []


def test_raise_ceiling_only_rises():
    assert raise_ceiling(None, None) is None
    assert raise_ceiling(None, 3) == 3
    assert raise_ceiling(3, 2) == 3
    assert raise_ceiling(3, None) == 3
    assert raise_ceiling(3, 4) == 4


def test_reaches_needs_an_intact_chain():
    tables = _tables(_FakeProtocol(0), _FakeProtocol(1, {0: 2}),
                     _FakeProtocol(2, {0: 0}), _FakeProtocol(3, {0: 4}),
                     _FakeProtocol(4, {0: 3}), _FakeProtocol(5, {0: 9}))
    assert reaches(tables, 1, 0)
    assert not reaches(tables, 3, 0)  # cycle
    assert not reaches(tables, 5, 0)  # chain leaves the mapping
