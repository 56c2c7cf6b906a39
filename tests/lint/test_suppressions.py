"""The suppression contract: justified waivers work, silent ones don't."""

from tests.lint.conftest import rule_ids

PROTO = "protocols/fake.py"


def test_justified_suppression_silences_rule(lint_tree):
    source = (
        "import random  # repro-lint: disable=RL001 -- fixture exercising "
        "the waiver path\n"
    )
    assert rule_ids(lint_tree({PROTO: source})) == []


def test_unjustified_suppression_is_flagged_and_ineffective(lint_tree):
    source = "import random  # repro-lint: disable=RL001\n"
    ids = rule_ids(lint_tree({PROTO: source}))
    # The naked waiver is itself reported AND the original violation stands.
    assert "RL000" in ids
    assert "RL001" in ids


def test_standalone_comment_covers_next_statement(lint_tree):
    source = (
        "# repro-lint: disable=RL001 -- fixture: waiver on its own line\n"
        "import random\n"
    )
    assert rule_ids(lint_tree({PROTO: source})) == []


def test_suppression_on_def_line_covers_body(lint_tree):
    source = (
        "def f():  # repro-lint: disable=RL005 -- fixture: whole-function waiver\n"
        "    a = hash('x')\n"
        "    b = hash('y')\n"
        "    return a + b\n"
    )
    assert rule_ids(lint_tree({PROTO: source})) == []


def test_suppression_only_covers_named_rule(lint_tree):
    source = (
        "import random  # repro-lint: disable=RL002 -- fixture: wrong rule id\n"
    )
    assert "RL001" in rule_ids(lint_tree({PROTO: source}))


def test_suppression_multiple_ids(lint_tree):
    source = (
        "def f(x):  # repro-lint: disable=RL004,RL005 -- fixture: both waived\n"
        "    return hash(x) + id(x)\n"
    )
    assert rule_ids(lint_tree({PROTO: source})) == []


def test_unparsable_file_reports_rl000(lint_tree):
    violations = lint_tree({PROTO: "def broken(:\n"})
    assert rule_ids(violations) == ["RL000"]


def test_unknown_rule_id_in_suppression_is_a_finding(lint_tree):
    source = (
        "import random  # repro-lint: disable=RL999 -- typo for RL001\n"
    )
    violations = lint_tree({PROTO: source})
    ids = rule_ids(violations)
    # The typo'd waiver is reported, has no effect, and names the bad id.
    assert "RL000" in ids
    assert "RL001" in ids
    assert any("RL999" in v.message for v in violations
               if v.rule_id == "RL000")


def test_stale_suppression_silent_by_default(lint_tree):
    source = (
        "x = 1  # repro-lint: disable=RL001 -- nothing to waive here\n"
    )
    assert rule_ids(lint_tree({PROTO: source})) == []


def test_stale_suppression_flagged_under_strict(lint_tree):
    source = (
        "x = 1  # repro-lint: disable=RL001 -- nothing to waive here\n"
    )
    violations = lint_tree({PROTO: source}, strict_suppressions=True)
    assert rule_ids(violations) == ["RL000"]
    assert "stale suppression" in violations[0].message


def test_used_suppression_survives_strict_mode(lint_tree):
    source = (
        "import random  # repro-lint: disable=RL001 -- fixture: real waiver\n"
    )
    assert rule_ids(lint_tree({PROTO: source},
                              strict_suppressions=True)) == []


# The inline directive is the one waiver for whole-program rules too.  The
# shape: a protocol hands its own stream to a jitter queue in net/, a
# layer that does not own the stream (RL202).
_NET_QUEUE = (
    "class JitterQueue:\n"
    "    def __init__(self, sim, rng):\n"
    "        self.sim = sim\n"
    "        self.rng = rng\n"
    "    def push(self, packet):\n"
    "        return self.rng.uniform(0.0, 0.015)\n"
)
_OLSR = (
    "{imports}"
    "class Olsr:\n"
    "    def __init__(self, sim, node_id):\n"
    "        self._rng = sim.stream('olsr.%d' % node_id)\n"
    "        self.queue = JitterQueue(sim, self._rng){directive}\n"
)


def _crossing_tree(directive):
    return {
        "net/queue.py": _NET_QUEUE,
        "protocols/olsr.py": _OLSR.format(
            imports="from net.queue import JitterQueue\n",
            directive=directive),
    }


def test_justified_waiver_silences_whole_program_rule(lint_tree):
    violations = lint_tree(_crossing_tree(""))
    assert [(v.rule_id, v.line) for v in violations] == [("RL202", 5)]
    assert "protocols/olsr.py" in violations[0].path
    # The same finding, waived with a reason on the reported line.
    tree = _crossing_tree(
        "  # repro-lint: disable=RL202 -- fixture: deliberate delegation")
    assert lint_tree(tree, strict_suppressions=True) == []


def test_unjustified_waiver_of_whole_program_rule_is_rl000(lint_tree):
    violations = lint_tree(
        _crossing_tree("  # repro-lint: disable=RL202"))
    # The naked waiver is reported and the finding it meant to hide stands.
    assert sorted(rule_ids(violations)) == ["RL000", "RL202"]


def test_waiver_goes_stale_once_the_stream_stops_crossing(lint_tree):
    # The queue sits beside the protocol, in the stream's own layer.
    olsr = _OLSR.format(
        imports="",
        directive="  # repro-lint: disable=RL202 -- fixture: delegation")
    files = {"protocols/olsr.py": _NET_QUEUE + olsr}
    stale = lint_tree(files, stage="program", strict_suppressions=True)
    assert rule_ids(stale) == ["RL000"]
    assert "stale suppression: RL202" in stale[0].message
    # Stale checks cover only the rules that ran: the syntactic stage
    # never evaluates RL202, so it cannot call the directive stale.
    assert lint_tree(files, stage="syntactic",
                     strict_suppressions=True) == []
