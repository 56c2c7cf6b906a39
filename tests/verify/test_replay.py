"""Cycle-detector unit tests: hand-built route-event streams.

These exercise the offline replay in isolation — no simulator, just the
invariant monitor driven from tiny synthetic traces — so the
loop/ordering/ownership logic is pinned independently of the end-to-end
agreement tests.
"""

from repro.obs.events import TraceEvent
from repro.verify import replay_events


def header(num_nodes=3, protocol="aodv", duration=10.0, **extra):
    doc = {
        "type": "header", "schema": 2,
        "config": {"protocol": protocol, "num_nodes": num_nodes,
                   "duration": duration},
        "truncated": False,
    }
    doc.update(extra)
    return doc


def route(t, node, dst, successor, metric=None, dst_own=None):
    return TraceEvent(t, "route", node, {
        "dst": dst, "successor": successor, "metric": metric,
        "dst_own": dst_own,
    })


def fault(t, what, target):
    return TraceEvent(t, "fault", None,
                      {"fault": what, "target": target, "what": what})


def violation(t, node, kind):
    return TraceEvent(t, "violation", node, {"violation": kind})


# -- loop detection ------------------------------------------------------


def test_clean_chain_is_immune():
    events = [route(1.0, 0, 2, 1), route(1.1, 1, 2, 2)]
    result = replay_events(header(), events, destinations=[2])
    assert result.verdict == "immune"
    assert result.violations == []


def test_two_node_loop_is_caught():
    # 0 -> 1 -> 0 toward destination 2: the mutual-successor loop.
    events = [route(1.0, 0, 2, 1), route(2.0, 1, 2, 0)]
    result = replay_events(header(), events, destinations=[2])
    assert result.verdict == "loop"
    kinds = [kind for _, kind, _ in result.violations]
    assert "loop" in kinds
    first = next(v for v in result.violations if v[1] == "loop")
    assert first[0] == 2.0                    # caught at the change, not later
    assert "routing loop for destination 2" in first[2]


def test_self_loop_is_caught():
    events = [route(3.0, 0, 2, 0)]
    result = replay_events(header(), events, destinations=[2])
    assert result.verdict == "loop"
    assert any("[0, 0]" in detail for _, kind, detail in result.violations
               if kind == "loop")


def test_heal_then_reloop_is_caught_twice():
    events = [
        route(1.0, 0, 2, 1), route(2.0, 1, 2, 0),   # loop forms
        route(3.0, 1, 2, None),                     # heals (route lost)
        route(4.0, 1, 2, 0),                        # re-forms
        route(5.0, 1, 2, None),                     # heals before the end
    ]
    result = replay_events(header(), events, destinations=[2])
    loops = [v for v in result.violations if v[1] == "loop"]
    assert [when for when, _, _ in loops] == [2.0, 4.0]


def test_persisting_loop_is_refound_by_the_end_sweep():
    # The monitor's check_all sweeps destinations at t=duration; a loop
    # still standing at shutdown is recorded once more.
    events = [route(1.0, 0, 2, 1), route(2.0, 1, 2, 0)]
    result = replay_events(header(duration=10.0), events, destinations=[2])
    loops = [when for when, kind, _ in result.violations if kind == "loop"]
    assert loops == [2.0, 10.0]


def test_at_most_one_loop_per_audit():
    # Two disjoint loops toward the same destination: the walk stops at
    # the first breach per table change, as the live monitor records it.
    events = [
        route(1.0, 0, 4, 1), route(1.5, 3, 4, 3),   # self-loop at t=1.5
        route(2.0, 1, 4, 0),                        # 0<->1 loop at t=2.0
    ]
    result = replay_events(header(num_nodes=5), events, destinations=[4])
    by_time = {}
    for when, kind, _ in result.violations:
        if kind == "loop":
            by_time[when] = by_time.get(when, 0) + 1
    assert all(count == 1 for count in by_time.values())


def test_chain_through_crashed_node_is_not_a_loop():
    events = [
        route(1.0, 0, 2, 1), route(1.1, 1, 2, 2),
        fault(2.0, "crash", 1),
    ]
    result = replay_events(header(), events, destinations=[2])
    assert result.verdict == "immune"


# -- crash/reboot bookkeeping --------------------------------------------


def test_crashed_node_table_change_is_dead_and_quarantined():
    events = [
        fault(1.0, "crash", 1),
        route(2.0, 1, 2, 0),     # stale instance writes after the crash
    ]
    result = replay_events(header(), events, destinations=[2])
    assert [kind for _, kind, _ in result.violations] == ["dead_table_change"]
    # ...and the write must NOT have entered the successor graph.
    assert result.verdict == "flagged"


def test_crash_clears_state_so_reboot_starts_fresh():
    events = [
        route(1.0, 0, 2, 1), route(1.1, 1, 2, 2),
        fault(2.0, "crash", 1),
        fault(3.0, "reboot", 1),
        # If node 1's pre-crash successor (2) resurfaced, 0 -> 1 -> 2
        # would still terminate; instead point 0 at 1 with 1 empty:
        route(4.0, 0, 2, 1),
    ]
    result = replay_events(header(), events, destinations=[2])
    assert result.verdict == "immune"


def test_dead_delivery_and_transmit():
    events = [
        fault(1.0, "crash", 1),
        TraceEvent(2.0, "deliver", 1, {"src": 0}),
        TraceEvent(2.5, "tx", 1, {}),
    ]
    result = replay_events(header(), events, destinations=[])
    kinds = sorted(kind for _, kind, _ in result.violations)
    assert kinds == ["dead_delivery", "dead_transmit"]


# -- LDR ordering (Theorem 2) --------------------------------------------


def test_ordering_checked_only_for_ldr_traces():
    # downstream sn < upstream sn along the chain toward 2.
    events = [
        route(1.0, 1, 2, 2, metric=[[2.0, 0], 1, 1], dst_own=[2.0, 0]),
        route(2.0, 0, 2, 1, metric=[[3.0, 0], 2, 2], dst_own=[2.0, 0]),
    ]
    ldr = replay_events(header(protocol="ldr"), events, destinations=[2])
    assert any(kind == "ordering" for _, kind, _ in ldr.violations)
    aodv = replay_events(header(protocol="aodv"), events, destinations=[2])
    assert not any(kind == "ordering" for _, kind, _ in aodv.violations)


def test_equal_sn_requires_strictly_decreasing_fd():
    events = [
        route(1.0, 1, 2, 2, metric=[[1.0, 0], 1, 1]),
        route(2.0, 0, 2, 1, metric=[[1.0, 0], 1, 2]),   # fd not decreasing
    ]
    result = replay_events(header(protocol="ldr"), events, destinations=[2])
    assert any(kind == "ordering" and "feasible-distance" in detail
               for _, kind, detail in result.violations)


def test_theorem2_compliant_chain_is_clean():
    events = [
        route(1.0, 1, 2, 2, metric=[[1.0, 0], 1, 1]),
        route(2.0, 0, 2, 1, metric=[[1.0, 0], 2, 2]),   # same sn, fd 2 > 1
    ]
    result = replay_events(header(protocol="ldr"), events, destinations=[2])
    assert result.verdict == "immune"


# -- seqnum ownership ----------------------------------------------------


def test_forged_label_above_ceiling_is_flagged():
    events = [
        route(1.0, 1, 2, 2, metric=[[1.0, 0], 1, 1], dst_own=[1.0, 0]),
        route(2.0, 0, 2, 1, metric=[[5.0, 0], 2, 2], dst_own=[1.0, 0]),
    ]
    result = replay_events(header(protocol="ldr"), events, destinations=[2])
    assert any(kind == "seqnum_ownership"
               for _, kind, _ in result.violations)


def test_ceiling_is_monotone_across_samples():
    # A later dst_own sample below the running maximum must not lower
    # the ceiling and retroactively flag an honest label.
    events = [
        route(1.0, 1, 2, 2, metric=[[3.0, 0], 1, 1], dst_own=[3.0, 0]),
        route(2.0, 0, 2, 1, metric=[[3.0, 0], 2, 2], dst_own=[1.0, 0]),
    ]
    result = replay_events(header(protocol="ldr"), events, destinations=[2])
    assert not any(kind == "seqnum_ownership"
                   for _, kind, _ in result.violations)


def test_integer_seqnums_work_too():
    # AODV labels are plain ints; the ceiling logic must not assume LDR
    # pair labels.
    events = [
        route(1.0, 1, 2, 2, metric=[3, 1, None], dst_own=3),
        route(2.0, 0, 2, 1, metric=[9, 2, None], dst_own=3),
    ]
    result = replay_events(header(), events, destinations=[2])
    assert any(kind == "seqnum_ownership"
               for _, kind, _ in result.violations)


# -- truncation policy ---------------------------------------------------


def test_truncated_trace_is_inconclusive_even_when_clean():
    """A loop in the dropped prefix must never be certified away.

    The retained suffix here is perfectly clean — but the header says
    the recorder dropped events, so the only sound verdict is
    ``inconclusive``, not ``immune``.
    """
    clean_suffix = [route(9.0, 0, 2, 1), route(9.1, 1, 2, 2)]
    result = replay_events(header(truncated=True), clean_suffix,
                           destinations=[2])
    assert result.verdict == "inconclusive"
    assert result.agreement is None
    assert "truncated" in result.describe()


def test_truncated_trace_still_reports_suffix_violations():
    events = [route(8.0, 0, 2, 1), route(9.0, 1, 2, 0)]
    result = replay_events(header(truncated=True), events, destinations=[2])
    assert result.verdict == "inconclusive"      # never upgraded to loop
    assert any(kind == "loop" for _, kind, _ in result.violations)


# -- monitor agreement bookkeeping ---------------------------------------


def test_agreement_compares_time_and_kind():
    events = [
        route(1.0, 0, 2, 1),
        route(2.0, 1, 2, 0),
        violation(2.0, 1, "loop"),
        violation(10.0, None, "loop"),   # the end-sweep record
    ]
    result = replay_events(header(duration=10.0), events, destinations=[2])
    assert result.agreement is True


def test_monitor_only_kinds_are_excluded_from_agreement():
    events = [
        route(1.0, 0, 2, 1), route(1.1, 1, 2, 2),
        violation(5.0, 0, "reconvergence"),
    ]
    result = replay_events(header(), events, destinations=[2])
    assert result.agreement is True


def test_disagreement_is_surfaced():
    # The monitor recorded a loop the replay cannot reproduce.
    events = [route(1.0, 0, 2, 1), violation(1.0, 0, "loop")]
    result = replay_events(header(), events, destinations=[2])
    assert result.agreement is False
    assert "monitor-agreement=NO" in result.describe()
