"""Deterministic shard plans: partition a campaign across worker shards.

A campaign is a list of trials whose identity is already content-hashed
(:func:`~repro.exec.cache.trial_key`), so partitioning it needs no
coordinator: every process that knows the grid and the shard count ``K``
computes the *same* assignment of trials to shards.  A shard is then just
an ordinary journaled campaign (:mod:`repro.exec.manifest`) over its
subset, living under ``<root>/shards/shard-<i>/`` with its own journal,
result cache, and trace artifacts::

    <root>/shards/shard-000/manifest.jsonl   shard 0's journal
    <root>/shards/shard-000/cache/           shard 0's result rows
    <root>/shards/shard-000/traces/          shard 0's trace artifacts
    <root>/shards/claims/                    work-steal claim tokens

The partition is a pure function of the trial key's 64-bit hash prefix
``h``: trial ``h`` belongs to shard ``h mod K``.  Trials interleave across
shards, so every shard sees a representative slice of the grid and
finishes at roughly the same time.

Uncoordinated workers can also *steal* whole shards from a shared
directory, which needs exactly one primitive: the atomic rename.  The
shared ``claims/`` directory holds one ``shard-<i>.todo`` token per
shard; claiming is ``rename(shard-i.todo, shard-i.claimed)`` — exactly
one process wins, no locks, works on any POSIX filesystem (and NFS).  A
finished shard renames its token to ``.done``; a claimant that fails
renames it back to ``.todo`` so another worker can pick the shard up.  A
SIGKILLed claimant leaves a ``.claimed`` token behind — the shard's
*journal* remains the ground truth, so the operator (or a supervisor)
re-queues it with :func:`reclaim_shard` and any worker resumes it from
the journal.

Execution state stays strictly out-of-band of result identity (the PR-8
discipline): the shard plan decides only *where* a trial runs, never what
it computes, so a K-shard campaign merged (:mod:`repro.exec.aggregate`)
is byte-identical to the same campaign run unsharded.
"""

import hashlib
import json
import os
import pathlib

from repro.exec.cache import trial_key

#: Shard-plan format version, stored in every shard's manifest meta; bump
#: when the partition function or the meta shape changes — shards from
#: different plan schemas must refuse to merge rather than silently mix.
#: 2: the ``range`` partition and the plan's ``mode`` field were removed.
SHARD_SCHEMA = 2

#: Hex digits of the trial key consumed by the partition function
#: (64 bits — the full key is 256; 64 are plenty to spread any grid).
_PREFIX_DIGITS = 16


class ShardPlanError(ValueError):
    """A shard plan is malformed or internally inconsistent."""


class ShardPlan:
    """A deterministic partition of trial keys into ``shards`` shards."""

    __slots__ = ("shards",)

    def __init__(self, shards):
        shards = int(shards)
        if shards < 1:
            raise ShardPlanError("a plan needs at least 1 shard, got %d"
                                 % shards)
        self.shards = shards

    def shard_of(self, key):
        """The shard index owning the trial with content hash ``key``."""
        return int(key[:_PREFIX_DIGITS], 16) % self.shards

    def assign(self, configs):
        """Partition ``configs`` into per-shard work lists.

        Returns ``[[(global_index, config), ...], ...]`` with one list
        per shard; every config appears in exactly one list, and lists
        preserve submission order.  Raises
        :class:`~repro.experiments.scenario.ConfigSerializationError`
        for configs without a stable content key — sharding, like
        journaling, requires resumable trials.
        """
        buckets = [[] for _ in range(self.shards)]
        for index, config in enumerate(configs):
            buckets[self.shard_of(trial_key(config))].append((index, config))
        return buckets

    def to_dict(self):
        return {"schema": SHARD_SCHEMA, "shards": self.shards}

    @classmethod
    def from_dict(cls, data):
        try:
            schema = data["schema"]
            shards = data["shards"]
        except (KeyError, TypeError) as err:
            raise ShardPlanError("malformed shard plan: %s" % err)
        if schema != SHARD_SCHEMA:
            raise ShardPlanError(
                "shard plan schema %r, this reader understands %r"
                % (schema, SHARD_SCHEMA))
        return cls(shards)

    def __eq__(self, other):
        return isinstance(other, ShardPlan) and self.shards == other.shards

    def __repr__(self):
        return "ShardPlan(shards=%d)" % self.shards


def campaign_fingerprint(keys):
    """Content hash identifying one campaign's full ordered trial list.

    Every shard stores this in its manifest meta; the aggregator refuses
    to merge shards whose fingerprints differ — they were cut from
    different grids (or the same grid under different code) and their
    union would be silently meaningless.
    """
    canonical = json.dumps(list(keys), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- shard directories --------------------------------------------------


def shards_root(root):
    """The directory holding every shard of the campaign at ``root``."""
    return pathlib.Path(root) / "shards"


def shard_dir(root, index):
    """Shard ``index``'s campaign directory under ``root``."""
    return shards_root(root) / ("shard-%03d" % index)


def shard_meta(plan, index, configs, labels=None, extra=None):
    """The manifest ``meta`` block registering a shard's place in a plan.

    ``configs`` is the FULL campaign grid (the fingerprint and total
    cover the whole campaign, not the shard's slice); the shard's own
    global indices are derived from the plan.
    """
    keys = [trial_key(config) for config in configs]
    indices = [i for i, key in enumerate(keys)
               if plan.shard_of(key) == index]
    meta = {
        "shard": {
            "schema": SHARD_SCHEMA,
            "shards": plan.shards,
            "index": index,
            "total": len(keys),
            "indices": indices,
            "fingerprint": campaign_fingerprint(keys),
        },
    }
    if labels is not None:
        meta["labels"] = [list(label) for label in labels]
    if extra:
        meta.update(extra)
    return meta


def start_shard(root, configs, plan, index, name="campaign", labels=None,
                meta=None, **engine_opts):
    """Start shard ``index`` of ``configs`` under ``root``.

    Creates ``<root>/shards/shard-<index>/`` as an ordinary journaled
    campaign over the shard's subset (its manifest meta records the plan,
    the shard's global indices, and the full campaign's fingerprint so
    the aggregator can certify coverage).  Returns ``(manifest, engine,
    subset)`` where ``subset`` is the shard's ``[(global_index, config),
    ...]`` work list — run it with ``engine.run([c for _, c in subset])``.

    Raises :class:`FileExistsError` when the shard was already started
    (resume it with :func:`~repro.exec.manifest.resume_campaign` on its
    directory instead).
    """
    from repro.exec.manifest import start_campaign

    if not 0 <= index < plan.shards:
        raise ShardPlanError("shard index %d outside plan of %d shard(s)"
                             % (index, plan.shards))
    subset = plan.assign(configs)[index]
    manifest, engine = start_campaign(
        shard_dir(root, index), [config for _, config in subset],
        name=name,
        meta=shard_meta(plan, index, configs, labels=labels, extra=meta),
        **engine_opts)
    return manifest, engine, subset


# -- work-steal claim tokens --------------------------------------------

#: Claim-token states; a token is ``shard-<i>.<state>`` under claims/.
TODO, CLAIMED, CLAIMDONE = "todo", "claimed", "done"


def claims_dir(root):
    return shards_root(root) / "claims"


def _token(root, index, state):
    return claims_dir(root) / ("shard-%03d.%s" % (index, state))


def init_claims(root, plan):
    """Lay down one ``.todo`` token per shard (idempotent, race-safe).

    Concurrent initializers are harmless: token creation is
    create-exclusive, and a token that already exists in *any* state is
    left alone — renames are the only transitions afterwards.
    """
    claims = claims_dir(root)
    claims.mkdir(parents=True, exist_ok=True)
    created = 0
    for index in range(plan.shards):
        states = [_token(root, index, state)
                  for state in (TODO, CLAIMED, CLAIMDONE)]
        if any(token.exists() for token in states):
            continue
        try:
            with open(states[0], "x", encoding="utf-8") as handle:
                handle.write(json.dumps(plan.to_dict()) + "\n")
            created += 1
        except FileExistsError:  # pragma: no cover - init race
            continue
    return created


def claim_shard(root, plan):
    """Atomically claim the lowest unclaimed shard; None when none left.

    The claim is one ``rename(.todo, .claimed)`` — exactly one concurrent
    caller wins each token, with no locks and no shared state beyond the
    directory itself.
    """
    for index in range(plan.shards):
        try:
            os.rename(_token(root, index, TODO),
                      _token(root, index, CLAIMED))
        except OSError:
            continue
        return index
    return None


def release_shard(root, index, done=True):
    """Finish (or re-queue) a claimed shard's token.

    ``done=True`` marks the shard finished; ``done=False`` hands it back
    to the pool (the claimant failed before completing it).  Returns
    False when the token was not in the claimed state (e.g. the claim was
    advisory and someone re-queued it already).
    """
    target = CLAIMDONE if done else TODO
    try:
        os.rename(_token(root, index, CLAIMED), _token(root, index, target))
    except OSError:
        return False
    return True


def reclaim_shard(root, index):
    """Re-queue a shard whose claimant died (``.claimed`` -> ``.todo``).

    The shard's journal is untouched — the next claimant resumes from it,
    and completed trials come straight back from the shard cache.
    """
    try:
        os.rename(_token(root, index, CLAIMED), _token(root, index, TODO))
    except OSError:
        return False
    return True


def claim_states(root, plan):
    """``{state: [indices]}`` snapshot of the claim board (advisory)."""
    states = {TODO: [], CLAIMED: [], CLAIMDONE: []}
    for index in range(plan.shards):
        for state in states:
            if _token(root, index, state).exists():
                states[state].append(index)
                break
    return states
