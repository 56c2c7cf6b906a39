"""Exhaustive model checking of the LDR abstraction (Theorems 1-4 on
tiny topologies) and the broken-model counterexample."""

import pytest

from repro.core.modelcheck import (
    BreachFound,
    BrokenModel,
    LdrModel,
    ModelChecker,
    verify_topology,
)


def test_triangle_is_loop_free():
    states = verify_topology(
        links=[(0, 1), (1, 2), (0, 2)], dst=0)
    assert states > 10


def test_line_is_loop_free():
    states = verify_topology(links=[(0, 1), (1, 2), (2, 3)], dst=0)
    assert states > 10


def test_square_with_flapping_link_is_loop_free():
    """Topology changes (link up/down) interleaved with every message
    schedule: the paper's hardest case in miniature."""
    states = verify_topology(
        links=[(0, 1), (1, 2), (2, 3), (3, 0)], dst=0,
        flappable=[(3, 0)],
    )
    assert states > 100


def test_diamond_with_flap_is_loop_free():
    states = verify_topology(
        links=[(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)], dst=0,
        flappable=[(0, 1)], max_states=400_000,
    )
    assert states > 100


def test_broken_model_without_fd_loops():
    """Replacing the feasible distance by the current distance (plain
    distance vector) admits a looping state — the checker finds it, which
    shows (a) fd is load-bearing and (b) the checker has teeth."""
    with pytest.raises(BreachFound) as found:
        verify_topology(
            links=[(0, 1), (1, 2), (0, 2)], dst=0,
            flappable=[(0, 1), (0, 2)],
            model=BrokenModel(), max_states=400_000,
        )
    assert found.value.kind == "loop"
    assert found.value.detail == "routing loop for destination 0: [1, 2, 1]"


def test_ldr_model_rejects_fd_ordering_breach_without_loop():
    """The audit checks Theorem 2, not only acyclicity: a hand-built state
    where 2 -> 1 -> 0 all hold sn 0 but fd rises toward the destination
    has no loop, yet LDR's checker rejects it."""
    labels = (
        (0, 0, 0, None),  # node 0, the destination
        (0, 2, 2, 0),     # node 1: fd 2, via the destination
        (0, 1, 2, 1),     # node 2: fd 1, via node 1 -- out of order
    )
    state = (labels, frozenset(), frozenset())
    links = [(0, 1), (1, 2)]
    with pytest.raises(BreachFound) as found:
        ModelChecker([0, 1, 2], links, dst=0).check_state(state)
    assert found.value.kind == "ordering"
    assert found.value.detail == (
        "feasible-distance ordering violated toward 0: 2 (fd=1) -> 1 (fd=2)")
    # The strawman audits loops only, and the state has none.
    ModelChecker([0, 1, 2], links, dst=0,
                 model=BrokenModel()).check_state(state)


def test_ldr_model_same_scenario_stays_loop_free():
    """The exact scenario that breaks the strawman is safe under LDR."""
    states = verify_topology(
        links=[(0, 1), (1, 2), (0, 2)], dst=0,
        flappable=[(0, 1), (0, 2)], max_states=400_000,
    )
    assert states > 100


def test_ndc_update_rule_properties():
    model = LdrModel()
    from repro.core.modelcheck import NodeLabel

    empty = NodeLabel()
    assert model.accepts(empty, 0, 3)
    updated = model.update(empty, 0, 3, sender=7)
    assert (updated.sn, updated.fd, updated.dist, updated.successor) == \
        (0, 4, 4, 7)
    # Same sn: fd is the running minimum.
    better = model.update(updated, 0, 1, sender=8)
    assert better.fd == 2
    # Fresher sn resets fd upward.
    reset = model.update(better, 1, 3, sender=9)
    assert reset.fd == 4


def test_checker_counts_states():
    checker = ModelChecker(nodes=[0, 1], links=[(0, 1)], dst=0)
    states = checker.run()
    assert checker.states_explored == states
    assert states >= 2
