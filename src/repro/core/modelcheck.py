"""Explicit-state model checking of LDR's loop-freedom conditions.

The simulation audits (:mod:`repro.routing.loopcheck`) test trajectories;
this module *exhaustively enumerates* the reachable state space of an
abstract LDR model on tiny topologies and checks that **no reachable
state contains a routing loop** — a mechanized, finite counterpart of the
paper's Theorems 1–4.

Abstraction: each node keeps only its routing label ``(sn, fd, dist,
successor)`` for one fixed destination.  Messages are advertisements
``(sender, sn, dist)`` sitting in a multiset with *arbitrary delivery
order and duplication* (the network may delay or re-deliver, modelling
unreliable links and stale packets).  Transitions:

* **deliver** — any pending advertisement reaches any current neighbor of
  its sender; the receiver applies NDC + Procedure 3 (the update rule);
* **advertise** — any node with a route emits an advertisement carrying
  its current ``(sn, dist)`` (the content of RREPs/relayed advertisements);
* **reset** — the destination increments its sequence number and emits an
  advertisement (the T-bit reset path);
* **link change** — (optional) a link from the supplied set flips, and
  nodes whose successor vanished invalidate.

Because NDC ignores message timing entirely, exploring all interleavings
of these transitions covers every schedule a real network could produce
(for the abstracted state).  Every reachable state is audited by
:func:`repro.routing.loopcheck.first_breach`, the engine the runtime
invariant monitor runs: the successor graph must be acyclic and, for
:class:`LdrModel`, keep the Theorem-2 ordering.

A companion :class:`BrokenModel` removes the feasible-distance memory
(using current distance instead, i.e. plain distance-vector) and the
checker *does* find looping states — evidence the check has teeth.
"""

from collections import deque

from repro.core.conditions import ndc_accepts
from repro.routing.loopcheck import first_breach

MAX_SN = 2     # sequence numbers explored: 0..MAX_SN
MAX_DIST = 4   # distances are capped (larger = "too far", dropped)


class NodeLabel:
    """Immutable per-node routing label for the fixed destination."""

    __slots__ = ("sn", "fd", "dist", "successor")

    def __init__(self, sn=None, fd=None, dist=None, successor=None):
        self.sn = sn
        self.fd = fd
        self.dist = dist
        self.successor = successor

    def key(self):
        return (self.sn, self.fd, self.dist, self.successor)

    def __repr__(self):
        return "L(sn={}, fd={}, d={}, via={})".format(
            self.sn, self.fd, self.dist, self.successor)


class _LabelTable:
    """One node's label read as a routing table by the loop audit."""

    __slots__ = ("sn", "fd", "dist", "succ")

    def __init__(self, key):
        self.sn, self.fd, self.dist, self.succ = key

    def successor(self, dst):
        return self.succ

    def route_metric(self, dst):
        if self.sn is None:
            return None
        return (self.sn, self.fd, self.dist)


class LdrModel:
    """The faithful abstraction: NDC acceptance + Procedure-3 update."""

    name = "ldr"
    #: Audit the Theorem-2 ordering as well as acyclicity.
    check_ordering = True

    def accepts(self, label, adv_sn, adv_dist):
        return ndc_accepts(label.sn, label.fd, adv_sn, adv_dist)

    def update(self, label, adv_sn, adv_dist, sender):
        new_dist = adv_dist + 1
        if label.sn is None or adv_sn > label.sn:
            new_fd = new_dist
        else:
            new_fd = min(label.fd, new_dist)
        return NodeLabel(adv_sn, new_fd, new_dist, sender)


class BrokenModel(LdrModel):
    """Distance-vector strawman: NDC against *current* distance, no fd.

    This is the classic Bellman-Ford acceptance rule; the model checker
    finds counting-to-infinity loops with it, demonstrating that the
    feasible-distance memory is what the loop-freedom proof rests on.
    """

    name = "broken"
    #: Without fd the ordering does not hold, and only loops are of interest.
    check_ordering = False

    def accepts(self, label, adv_sn, adv_dist):
        if label.sn is None:
            return True
        if adv_sn > label.sn:
            return True
        if adv_sn < label.sn:
            return False
        if label.successor is None:
            # No valid route: naive DV grabs any same-number offer —
            # including one from a node that routes through *us* (the
            # count-to-infinity loop).  LDR's NDC refuses this because the
            # feasible distance survives invalidation.
            return True
        # Uses dist (current) instead of fd (historical minimum).
        return adv_dist < label.dist

    def update(self, label, adv_sn, adv_dist, sender):
        new_dist = adv_dist + 1
        return NodeLabel(adv_sn, new_dist, new_dist, sender)


class BreachFound(Exception):
    """A reachable state breaks the audit: a successor cycle (``kind``
    ``"loop"``) or the Theorem-2 ordering (``"ordering"``)."""

    def __init__(self, state, breach):
        super().__init__("{} in state {}".format(breach.detail, state))
        self.state = state
        self.kind = breach.kind
        self.detail = breach.detail


class ModelChecker:
    """BFS over the reachable abstract states.

    ``nodes`` are ids with the destination ``dst`` among them; ``links``
    is the set of undirected edges (frozensets).  ``flappable`` edges may
    disappear/reappear during exploration (topology change transitions).
    """

    def __init__(self, nodes, links, dst, model=None, flappable=(),
                 max_states=200_000, max_messages=2):
        self.nodes = tuple(sorted(nodes))
        self.base_links = frozenset(frozenset(l) for l in links)
        self.flappable = frozenset(frozenset(l) for l in flappable)
        self.dst = dst
        self.model = model or LdrModel()
        self.max_states = max_states
        self.max_messages = max_messages
        self.states_explored = 0

    # ------------------------------------------------------------------
    # state encoding: (labels tuple, messages frozenset, down-links)
    # ------------------------------------------------------------------
    def _initial_state(self):
        labels = {}
        for node in self.nodes:
            if node == self.dst:
                labels[node] = NodeLabel(0, 0, 0, None)
            else:
                labels[node] = NodeLabel()
        return (
            tuple(labels[n].key() for n in self.nodes),
            frozenset(),        # pending advertisements (sender, sn, dist)
            frozenset(),        # currently-down flappable links
        )

    def _label(self, state, node):
        return NodeLabel(*state[0][self.nodes.index(node)])

    def _with_label(self, state, node, label):
        labels = list(state[0])
        labels[self.nodes.index(node)] = label.key()
        return (tuple(labels), state[1], state[2])

    def _links(self, state):
        return self.base_links - state[2]

    def _neighbors(self, state, node):
        return [
            other for other in self.nodes
            if other != node and frozenset((node, other)) in self._links(state)
        ]

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _successors(self, state):
        labels, messages, down = state

        # 1. advertise: any routed node emits its (sn, dist).
        if len(messages) < self.max_messages:
            for node in self.nodes:
                label = self._label(state, node)
                if label.sn is not None and label.dist is not None \
                        and label.dist <= MAX_DIST:
                    msg = (node, label.sn, label.dist)
                    if msg not in messages:
                        yield (labels, messages | {msg}, down)

        # 2. reset: the destination increments its number.
        dst_label = self._label(state, self.dst)
        if dst_label.sn < MAX_SN:
            new = NodeLabel(dst_label.sn + 1, 0, 0, None)
            yield self._with_label(state, self.dst, new)

        # 3. deliver: any message to any neighbor of its sender.
        for msg in messages:
            sender, adv_sn, adv_dist = msg
            for receiver in self._neighbors(state, sender):
                if receiver == self.dst:
                    continue
                label = self._label(state, receiver)
                if self.model.accepts(label, adv_sn, adv_dist):
                    updated = self.model.update(label, adv_sn, adv_dist,
                                                sender)
                    if updated.dist <= MAX_DIST + 1:
                        # message may be duplicated: keep it pending too
                        yield self._with_label(state, receiver, updated)
                # messages may also be dropped
            yield (labels, messages - {msg}, down)

        # 4. topology flaps + invalidation of broken successors.
        for link in self.flappable:
            new_down = down ^ {link}
            new_state = (labels, messages, frozenset(new_down))
            yield self._invalidate_broken(new_state)

    def _invalidate_broken(self, state):
        """Nodes whose successor is no longer a neighbor lose validity of
        the path but keep labels (LDR's invalidation)."""
        for node in self.nodes:
            label = self._label(state, node)
            if label.successor is not None and \
                    label.successor not in self._neighbors(state, node):
                # Successor unreachable: the entry goes invalid; in the
                # abstraction we drop the successor edge but keep labels.
                state = self._with_label(
                    state, node,
                    NodeLabel(label.sn, label.fd, label.dist, None))
        return state

    # ------------------------------------------------------------------
    # the check
    # ------------------------------------------------------------------
    def check_state(self, state):
        """Audit one state; raises :class:`BreachFound` on the first breach.

        The destination's label is ``(sn, 0, 0)``, so the audit reads it
        as the route metric the real protocol reports for itself.
        """
        tables = {
            node: _LabelTable(key) for node, key in zip(self.nodes, state[0])
        }
        breach = first_breach(tables, self.dst, self.model.check_ordering)
        if breach is not None:
            raise BreachFound(state, breach)

    def run(self):
        """Explore; raises :class:`BreachFound` on the first breach.

        Returns the number of distinct states explored.
        """
        initial = self._initial_state()
        queue = deque([initial])
        visited = {initial}
        self.check_state(initial)
        while queue:
            if len(visited) > self.max_states:
                raise RuntimeError(
                    "state budget exceeded (%d)" % self.max_states)
            state = queue.popleft()
            self.states_explored += 1
            for nxt in self._successors(state):
                if nxt in visited:
                    continue
                visited.add(nxt)
                self.check_state(nxt)
                queue.append(nxt)
        return self.states_explored


def verify_topology(links, dst, flappable=(), model=None, **kw):
    """Convenience wrapper: nodes inferred from the link set."""
    nodes = set()
    for a, b in links:
        nodes.add(a)
        nodes.add(b)
    checker = ModelChecker(nodes, links, dst, model=model,
                           flappable=flappable, **kw)
    return checker.run()
