"""Lint configuration: rule scoping and the explicit allowlist.

Which layers a rule patrols is policy, not mechanics, so it lives here
rather than in the rules themselves.  The allowlist is deliberately
explicit and path-based: ``sim/rng.py`` is the *only* module allowed to
touch the ``random`` module (it is the seeded-stream factory everything
else must go through), and the ``exec/`` layer is allowed wall-clock reads
because it orchestrates trials from the host's point of view (cache entry
``created`` stamps, progress/ETA accounting) — it never runs inside the
simulated world.

Projects can extend the allowlist from ``pyproject.toml``::

    [tool.repro-lint]
    allow = { RL002 = ["exec/new_module.py"] }
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

#: Layers (top-level package directories) whose code runs *inside* the
#: simulated world and therefore must be bit-deterministic under a seed.
#: ``faults`` belongs here: fault injection replays from the dedicated
#: ``faults`` RNG stream, so it is bound by the same rules as protocols.
#: ``obs`` too: the trace recorder observes simulated events and its
#: output must be byte-identical under a seed (only ``obs/profile.py``
#: is allowlisted for wall-clock reads, and timers stay out of traces).
#: ``exec`` joined when campaign supervision gained randomized retry
#: backoff: result rows must stay byte-identical however many retries or
#: resumes a trial survives, so exec's randomness is confined to the
#: registered ``exec`` stream (jitter, chaos fault choices) and ambient
#: ``random`` use is banned there like everywhere else; its wall-clock
#: reads (progress ETAs, stall budgets, journal stamps) stay allowlisted
#: under RL002 because they are host facts kept out of result identity.
DETERMINISTIC_LAYERS: FrozenSet[str] = frozenset(
    {"sim", "net", "protocols", "routing", "mobility", "traffic", "core",
     "faults", "obs", "verify", "exec"}
)

#: Layers that may define RoutingProtocol subclasses subject to the
#: conformance rules (RL1xx).
CONFORMANCE_LAYERS: FrozenSet[str] = frozenset({"protocols", "core"})

#: The named-stream registry (RL2xx).  Each ``RngStreams`` stream belongs
#: to the layer(s) listed here; acquiring or consuming it anywhere else is
#: a cross-layer leak that couples two subsystems' random sequences (the
#: exact failure mode the per-layer substream design exists to prevent —
#: adding one extra draw in mobility must never perturb protocol
#: behaviour).  Keys ending in ``.`` are prefixes for per-entity streams
#: (``mac.<node>``, ``proto.<node>``, ``olsr.<node>``).  Host-side layers
#: (``experiments``, ``bench``) sit outside DETERMINISTIC_LAYERS and are
#: not patrolled: they *construct* the simulated world and hand streams
#: to the layers that own them.  ``exec`` is patrolled and owns the
#: ``exec`` stream (retry-backoff jitter, chaos fault choices) — a
#: simulation layer acquiring it would couple simulated behaviour to
#: host-side scheduling, exactly the leak RL2xx exists to reject.
STREAM_LAYERS: Mapping[str, Tuple[str, ...]] = {
    "mobility": ("mobility",),
    "traffic": ("traffic",),
    "channel.gray": ("net",),
    "mac.": ("net",),
    "proto.": ("routing", "protocols", "core"),
    "olsr.": ("protocols",),
    "faults": ("faults",),
    "exec": ("exec",),
}

#: Routing-state fields whose assignment must be dominated by a
#: feasibility check (RL401): the successor choice and the feasible
#: distance are exactly the quantities Theorems 2 and 4 constrain.
GUARDED_FIELDS: FrozenSet[str] = frozenset(
    {"successor", "next_hop", "fd", "feasible_distance"}
)

#: Calls that constitute direct feasibility-condition evidence (RL401):
#: the NDC/SDC predicates from core/conditions.py.
FEASIBILITY_PREDICATES: FrozenSet[str] = frozenset(
    {"ndc_accepts", "sdc_allows_reply", "t_bit_update", "strengthen_solicitation"}
)

#: Names that read as "infinite distance" — assigning one is a route
#: teardown, which needs no feasibility guard (withdrawing a route cannot
#: create a loop; Theorem 4's argument only constrains *adoption*).
INFINITY_NAMES: FrozenSet[str] = frozenset({"INFINITY", "INF", "UNREACHABLE"})

#: Methods exempt from the table-change notification rule: construction
#: and startup run before the LoopChecker is installed.
TABLE_EXEMPT_METHODS: FrozenSet[str] = frozenset({"__init__", "start"})

#: Per-rule path allowlist.  Entries ending in "/" are directory prefixes;
#: anything else must match the file's root-relative posix path exactly.
DEFAULT_ALLOWLIST: Mapping[str, Tuple[str, ...]] = {
    # The seeded-stream factory is where random.Random construction lives.
    "RL001": ("sim/rng.py",),
    # Host-side orchestration: cache stamps and progress ETAs read real
    # clocks by design; trial payloads never depend on them.  The bench
    # layer exists to read wall clocks (it times the kernel from outside
    # the simulated world), so it sits behind the same wall as exec/.
    # The profiler's phase timers are host facts too: they are reported
    # out-of-band (never in rows or traces), so perf_counter is confined
    # to that one file.
    "RL002": ("exec/", "bench/", "obs/profile.py"),
    # The simulator's stream() accessor and the RngStreams factory are the
    # dynamic pass-through every registered name flows over; the registry
    # check applies at acquisition sites, not inside the plumbing.
    "RL203": ("sim/",),
}


@dataclass
class LintConfig:
    """Resolved configuration for one lint run."""

    deterministic_layers: FrozenSet[str] = DETERMINISTIC_LAYERS
    conformance_layers: FrozenSet[str] = CONFORMANCE_LAYERS
    table_exempt_methods: FrozenSet[str] = TABLE_EXEMPT_METHODS
    stream_layers: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(STREAM_LAYERS)
    )
    guarded_fields: FrozenSet[str] = GUARDED_FIELDS
    feasibility_predicates: FrozenSet[str] = FEASIBILITY_PREDICATES
    infinity_names: FrozenSet[str] = INFINITY_NAMES
    allowlist: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOWLIST)
    )

    def stream_owners(self, name: str) -> Optional[Tuple[str, ...]]:
        """Layers that own stream ``name`` (longest registry match), or
        None when the name matches no registry entry."""
        best: Optional[Tuple[str, str]] = None
        for key in self.stream_layers:
            if key.endswith("."):
                if not (name == key[:-1] or name.startswith(key)):
                    continue
            elif name != key:
                continue
            if best is None or len(key) > len(best[0]):
                best = (key, key)
        if best is None:
            return None
        return tuple(self.stream_layers[best[0]])

    def is_allowed(self, rule_id: str, relpath: str) -> bool:
        """True when ``relpath`` is allowlisted for ``rule_id``."""
        for entry in self.allowlist.get(rule_id, ()):
            if entry.endswith("/"):
                if relpath.startswith(entry):
                    return True
            elif relpath == entry:
                return True
        return False

    def extend_allowlist(self, extra: Mapping[str, Sequence[str]]) -> None:
        for rule_id, entries in extra.items():
            merged = tuple(self.allowlist.get(rule_id, ())) + tuple(
                str(e) for e in entries
            )
            self.allowlist[rule_id] = merged


def load_config(root: Path) -> LintConfig:
    """Build a config, merging ``[tool.repro-lint]`` from a pyproject.toml
    found at or above ``root`` (best effort; absent tomllib → defaults)."""
    config = LintConfig()
    try:
        import tomllib
    except ImportError:  # Python < 3.11: ship defaults, skip pyproject.
        return config
    for candidate in (root, *root.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            try:
                with open(pyproject, "rb") as handle:
                    data = tomllib.load(handle)
            except (OSError, tomllib.TOMLDecodeError):
                return config
            section = data.get("tool", {}).get("repro-lint", {})
            allow = section.get("allow", {})
            if isinstance(allow, dict):
                config.extend_allowlist(
                    {
                        str(k): v
                        for k, v in allow.items()
                        if isinstance(v, (list, tuple))
                    }
                )
            return config
    return config
