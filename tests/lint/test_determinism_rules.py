"""Determinism rules (RL001-RL006) against synthetic fixture trees."""

from tests.lint.conftest import rule_ids

PROTO = "protocols/fake.py"


def test_rl001_flags_random_import_in_protocols(lint_tree):
    violations = lint_tree({PROTO: "import random\nx = random.random()\n"})
    assert "RL001" in rule_ids(violations)


def test_rl001_flags_from_import(lint_tree):
    violations = lint_tree({PROTO: "from random import Random\n"})
    assert "RL001" in rule_ids(violations)


def test_rl001_allows_the_stream_factory(lint_tree):
    # sim/rng.py is the one sanctioned construction site.
    violations = lint_tree({"sim/rng.py": "import random\n"})
    assert "RL001" not in rule_ids(violations)


def test_rl001_applies_outside_deterministic_layers_too(lint_tree):
    # Ambient randomness is banned package-wide, not just in sim code.
    violations = lint_tree({"experiments/sweep.py": "import random\n"})
    assert "RL001" in rule_ids(violations)


def test_rl002_flags_wall_clock(lint_tree):
    violations = lint_tree(
        {PROTO: "import time\n\ndef f():\n    return time.time()\n"}
    )
    assert "RL002" in rule_ids(violations)


def test_rl002_flags_from_import_alias(lint_tree):
    source = "from time import monotonic as clock\n\ndef f():\n    return clock()\n"
    assert "RL002" in rule_ids(lint_tree({PROTO: source}))


def test_rl002_flags_datetime_now(lint_tree):
    source = (
        "from datetime import datetime\n\ndef f():\n    return datetime.now()\n"
    )
    assert "RL002" in rule_ids(lint_tree({PROTO: source}))


def test_rl002_allows_exec_layer(lint_tree):
    # exec/ orchestrates from the host's point of view (cache stamps, ETA).
    source = "import time\n\ndef stamp():\n    return time.time()\n"
    assert "RL002" not in rule_ids(lint_tree({"exec/cache.py": source}))


def test_rl003_flags_uuid4(lint_tree):
    source = "import uuid\n\ndef f():\n    return uuid.uuid4()\n"
    assert "RL003" in rule_ids(lint_tree({PROTO: source}))


def test_rl003_flags_secrets_import(lint_tree):
    assert "RL003" in rule_ids(lint_tree({PROTO: "import secrets\n"}))


def test_rl004_flags_id_call(lint_tree):
    source = "def f(items):\n    return sorted(items, key=id)[0] if id(items) else None\n"
    assert "RL004" in rule_ids(lint_tree({PROTO: source}))


def test_rl004_not_enforced_outside_deterministic_layers(lint_tree):
    # experiments/ stays unpatrolled (exec/ joined DETERMINISTIC_LAYERS
    # when campaign supervision grew its own RNG stream).
    source = "def f(x):\n    return id(x)\n"
    assert "RL004" not in rule_ids(lint_tree({"experiments/tables.py": source}))


def test_rl005_flags_hash_call(lint_tree):
    source = "def pick(name):\n    return hash(name) % 4\n"
    assert "RL005" in rule_ids(lint_tree({PROTO: source}))


def test_rl005_allows_dunder_hash(lint_tree):
    source = (
        "class Key:\n"
        "    def __hash__(self):\n"
        "        return hash((1, 2))\n"
    )
    assert "RL005" not in rule_ids(lint_tree({PROTO: source}))


def test_rl006_flags_for_over_set(lint_tree):
    source = (
        "def fanout(neighbors):\n"
        "    audience = set(neighbors)\n"
        "    for n in audience:\n"
        "        print(n)\n"
    )
    assert "RL006" in rule_ids(lint_tree({PROTO: source}))


def test_rl006_flags_keyed_min_over_set(lint_tree):
    source = (
        "def best(candidates):\n"
        "    pool = set(candidates)\n"
        "    return min(pool, key=lambda c: c.cost)\n"
    )
    assert "RL006" in rule_ids(lint_tree({PROTO: source}))


def test_rl006_flags_next_iter_set(lint_tree):
    source = "def any_one(s):\n    return next(iter(set(s)))\n"
    assert "RL006" in rule_ids(lint_tree({PROTO: source}))


def test_rl006_allows_sorted_wrapper(lint_tree):
    source = (
        "def fanout(neighbors):\n"
        "    audience = set(neighbors)\n"
        "    for n in sorted(audience):\n"
        "        print(n)\n"
    )
    assert "RL006" not in rule_ids(lint_tree({PROTO: source}))


def test_rl006_unkeyed_min_is_fine(lint_tree):
    # min() over a set without a key is value-determined, not order-
    # determined; only keyed selection breaks ties by iteration order.
    source = "def lowest(s):\n    return min(set(s))\n"
    assert "RL006" not in rule_ids(lint_tree({PROTO: source}))


def test_clean_protocol_file_is_clean(lint_tree):
    source = (
        "def choose(rng, options):\n"
        "    return options[rng.randrange(len(options))]\n"
    )
    assert rule_ids(lint_tree({PROTO: source})) == []


# ----------------------------------------------------------------------
# Relative imports (the _module_bindings blind spot, fixed in this PR)
# ----------------------------------------------------------------------

def test_rl002_sees_through_relative_import(lint_tree):
    # The old _module_bindings dropped every `node.level != 0` import, so
    # a wall clock re-imported relatively was invisible.
    files = {
        "sim/compat.py": "from time import time as now\n",
        "sim/clock.py": (
            "from .compat import now\n"
            "\n"
            "\n"
            "def tick():\n"
            "    return now()\n"
        ),
    }
    violations = lint_tree(files)
    assert "RL002" in rule_ids(violations)
    assert any(
        v.path.endswith("sim/clock.py") and "time.time" in v.message
        for v in violations
    )


def test_rl003_sees_through_two_level_relative_import(lint_tree):
    files = {
        "net/ids.py": "from uuid import uuid4 as fresh\n",
        "net/mac/frame.py": (
            "from ..ids import fresh\n"
            "\n"
            "\n"
            "def tag():\n"
            "    return fresh()\n"
        ),
    }
    assert "RL003" in rule_ids(lint_tree(files))
