"""RNG stream-taint rules RL201/RL202/RL203 on synthetic trees."""

from repro.lint.taint import (
    CrossLayerStreamAcquisition,
    StreamObjectEscape,
    UnregisteredStreamName,
)
from tests.lint.conftest import rule_ids


def _run(lint_tree, files, rule_cls):
    return lint_tree(files, rules=[rule_cls()])


# ----------------------------------------------------------------------
# RL201 — cross-layer acquisition
# ----------------------------------------------------------------------

def test_rl201_protocol_grabbing_mobility_stream_fires(lint_tree):
    violations = _run(
        lint_tree,
        {"protocols/bad.py": (
            "class Proto:\n"
            "    def jitter(self):\n"
            "        return self.sim.stream('mobility').random()\n"
        )},
        CrossLayerStreamAcquisition,
    )
    assert rule_ids(violations) == ["RL201"]
    assert "mobility" in violations[0].message
    assert violations[0].line == 3


def test_rl201_owner_layer_is_silent(lint_tree):
    files = {
        "mobility/model.py": (
            "class Model:\n"
            "    def step(self):\n"
            "        return self.sim.stream('mobility').random()\n"
        ),
        "protocols/good.py": (
            "class Proto:\n"
            "    def start(self):\n"
            "        self.rng = self.sim.stream('proto.%d' % self.nid)\n"
        ),
    }
    assert _run(lint_tree, files, CrossLayerStreamAcquisition) == []


def test_rl201_unpatrolled_layer_is_out_of_scope(lint_tree):
    # experiments/ is host-side orchestration, not simulated-world code.
    files = {
        "experiments/run.py": (
            "def poke(sim):\n"
            "    return sim.stream('mobility').random()\n"
        ),
    }
    assert _run(lint_tree, files, CrossLayerStreamAcquisition) == []


# ----------------------------------------------------------------------
# RL202 — stream object escape
# ----------------------------------------------------------------------

def test_rl202_storing_stream_on_foreign_object_fires(lint_tree):
    violations = _run(
        lint_tree,
        {"protocols/bad.py": (
            "class Proto:\n"
            "    def start(self, peer):\n"
            "        rng = self.sim.stream('proto.%d' % self.nid)\n"
            "        peer.rng = rng\n"
        )},
        StreamObjectEscape,
    )
    assert rule_ids(violations) == ["RL202"]
    assert "another object's attribute" in violations[0].message


def test_rl202_passing_stream_into_foreign_layer_fires(lint_tree):
    files = {
        "net/queue.py": (
            "def enqueue(rng, pkt):\n"
            "    return rng.random()\n"
        ),
        "mobility/model.py": (
            "from net.queue import enqueue\n"
            "class Model:\n"
            "    def step(self):\n"
            "        rng = self.sim.stream('mobility')\n"
            "        enqueue(rng, None)\n"
        ),
    }
    violations = _run(lint_tree, files, StreamObjectEscape)
    assert rule_ids(violations) == ["RL202"]
    assert "'mobility'" in violations[0].message
    assert "'net'" in violations[0].message


def test_rl202_stream_used_within_owning_layers_is_silent(lint_tree):
    # proto.* streams are co-owned by routing/protocols/core, so handing
    # one to a core helper is inside the seed accounting.
    files = {
        "core/helpers.py": (
            "def draw(rng):\n"
            "    return rng.random()\n"
        ),
        "protocols/good.py": (
            "from core.helpers import draw\n"
            "class Proto:\n"
            "    def start(self):\n"
            "        self.rng = self.sim.stream('proto.%d' % self.nid)\n"
            "    def jitter(self):\n"
            "        return draw(self.rng)\n"
        ),
    }
    assert _run(lint_tree, files, StreamObjectEscape) == []


# ----------------------------------------------------------------------
# RL203 — name registry
# ----------------------------------------------------------------------

def test_rl203_typo_stream_name_fires(lint_tree):
    violations = _run(
        lint_tree,
        {"mobility/model.py": (
            "class Model:\n"
            "    def step(self):\n"
            "        return self.sim.stream('mobilty').random()\n"
        )},
        UnregisteredStreamName,
    )
    assert rule_ids(violations) == ["RL203"]
    assert "mobilty" in violations[0].message


def test_rl203_dynamic_name_fires_outside_sim(lint_tree):
    violations = _run(
        lint_tree,
        {"mobility/model.py": (
            "class Model:\n"
            "    def step(self, name):\n"
            "        return self.sim.stream(name).random()\n"
        )},
        UnregisteredStreamName,
    )
    assert rule_ids(violations) == ["RL203"]
    assert "computed at runtime" in violations[0].message


def test_rl203_sim_passthrough_is_allowlisted(lint_tree):
    # RngStreams itself forwards whatever name it is asked for.
    files = {
        "sim/rng.py": (
            "class RngStreams:\n"
            "    def stream(self, name):\n"
            "        return self._streams.stream(name)\n"
        ),
    }
    assert _run(lint_tree, files, UnregisteredStreamName) == []


def test_rl203_registered_prefix_names_are_silent(lint_tree):
    files = {
        "net/mac.py": (
            "class Mac:\n"
            "    def start(self):\n"
            "        self.rng = self.sim.stream('mac.%d' % self.nid)\n"
        ),
        "faults/injector.py": (
            "class Injector:\n"
            "    def start(self):\n"
            "        self.rng = self.sim.stream('faults')\n"
        ),
    }
    assert _run(lint_tree, files, UnregisteredStreamName) == []
