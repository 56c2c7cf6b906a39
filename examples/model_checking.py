#!/usr/bin/env python
"""Exhaustively model-check LDR's loop-freedom on small topologies.

    python examples/model_checking.py

Simulation can only sample trajectories; this example *enumerates every
reachable state* of an abstract LDR model — arbitrary message delay,
duplication and loss, interleaved with link failures and destination
resets — and checks that no reachable state contains a routing loop
or breaks the Theorem-2 ordering (the finite counterpart of the paper's
Theorems 1-4).

It then swaps LDR's acceptance rule for plain distance-vector (drop the
feasible-distance memory) and shows the checker immediately finds the
classic count-to-infinity loop: the paper's invariant is load-bearing.
"""

from repro.core.modelcheck import BreachFound, BrokenModel, verify_topology

TOPOLOGIES = [
    ("3-node line", [(0, 1), (1, 2)], []),
    ("4-node line", [(0, 1), (1, 2), (2, 3)], []),
    ("triangle", [(0, 1), (1, 2), (0, 2)], []),
    ("triangle + flapping links", [(0, 1), (1, 2), (0, 2)],
     [(0, 1), (0, 2)]),
    ("square + flapping link", [(0, 1), (1, 2), (2, 3), (3, 0)],
     [(3, 0)]),
    ("diamond + flap", [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)],
     [(0, 1)]),
]


def main():
    print("Exhaustive state-space exploration (destination = node 0)\n")
    print("{:<28}{:>14}   {}".format("topology", "states", "verdict"))
    print("-" * 60)
    for name, links, flappable in TOPOLOGIES:
        states = verify_topology(links, dst=0, flappable=flappable,
                                 max_states=500_000)
        print("{:<28}{:>14}   loop-free (all states checked)".format(
            name, states))

    print("\nNow the strawman: same topology/churn, but acceptance uses the")
    print("*current* distance instead of the feasible distance ...")
    try:
        verify_topology([(0, 1), (1, 2), (0, 2)], dst=0,
                        flappable=[(0, 1), (0, 2)], model=BrokenModel(),
                        max_states=500_000)
        print("unexpectedly loop-free?!")
    except BreachFound as exc:
        print("LOOP FOUND: {} — the count-to-infinity".format(exc.detail))
        print("pattern that LDR's feasible-distance invariant forbids.")


if __name__ == "__main__":
    main()
