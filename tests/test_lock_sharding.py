"""Shard invariance of the lock table, pinned to the one partition.

The lock table used to be split into hash-routed shards, and these tests
ran every scenario at ``shards`` 1, 2 and 8 and required the same grants,
wake-up sets, release orders and, end to end, the same seeded outcome for
every registered grid factory.  Sharding is gone: :class:`LockTable` is a
single partition.  What every shard count agreed on is kept here as a
recorded digest, so the single partition must keep reproducing exactly
what the sharded table produced.

A digest moves only when lock-table or scheduler behaviour moves.  If
such a change is intended, record the digest the failure message prints
and say why in the change log.
"""

import hashlib
import json
import random

import pytest

from repro.core import LockMode
from repro.policies import AltruisticPolicy, DdagPolicy, TwoPhasePolicy
from repro.sim import (
    GRID_FACTORIES,
    GridSpec,
    LockTable,
    PolicySpec,
    WorkloadSpec,
    grid_factory,
    run_grid,
    run_seed,
)


def digest(obj) -> str:
    """Short stable digest of a JSON-encodable value."""
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _modes(mapping):
    return sorted((key, mode.name) for key, mode in mapping.items())


def random_op_transcript(seed, table):
    """Apply one seeded random op sequence to ``table`` and return the
    digest of every return value (wake sets, released lists) and every
    observable view (holders, waiters, held_by) after each step."""
    rng = random.Random(seed)
    entities = [f"e{i}" for i in range(12)]
    txns = [f"T{i}" for i in range(8)]
    steps = []
    for _ in range(400):
        op = rng.random()
        t, e = rng.choice(txns), rng.choice(entities)
        mode = rng.choice((LockMode.SHARED, LockMode.EXCLUSIVE))
        if op < 0.4:
            if table.grantable(t, e, mode):
                table.acquire(t, e, mode)
                out = "granted"
            else:
                out = table.add_waiter(t, e, mode)
        elif op < 0.65:
            out = table.release(t, e, mode)
        elif op < 0.8:
            released, woken = table.release_all_wake(t)
            out = [[[ent, m.name] for ent, m in released], woken]
        else:
            out = table.remove_waiter(t)
        steps.append({
            "out": out,
            "holders": [_modes(table.holders(x)) for x in entities],
            "waiters": [
                [[w, m.name] for w, m in table.waiter_modes(x)]
                for x in entities
            ],
            "held_by": [_modes(table.held_by(x)) for x in txns],
            "waiting": [table.waiting_entity(x) for x in txns],
            "locked": sorted(table.locked_entities()),
        })
    return digest(steps)


def outcome_digest(outcome) -> str:
    """Digest of a whole :class:`SeedOutcome`: metric summary, work
    counters, serializability verdict and error text."""
    return digest([
        outcome.summary, outcome.work, outcome.serializable, outcome.error,
    ])


def grid_digest(cells) -> str:
    """Digest of a grid's ``CellResult.row()`` dicts and work means."""
    return digest([[c.row() for c in cells], [c.work_means for c in cells]])


#: ``random_op_transcript`` digests per seed, equal at shards 1, 2 and 8
#: when the table was sharded.
TABLE_DIGESTS = {
    0: "fd1b269e487a1b3f",
    1: "cbcf3b50b6485130",
    2: "544dceb704ed9e5f",
    3: "fa5c834ce485b7ce",
    4: "4639411bd75591f6",
    5: "7a4cd1fef8146fe7",
}

# Small-but-contended kwargs per registered factory, plus the policy that
# exercises the factory's intended scenario.
FACTORY_CELLS = {
    "stress": (
        TwoPhasePolicy,
        {"num_entities": 30, "num_txns": 40, "arrival_rate": 1.0,
         "hot_fraction": 0.1},
    ),
    "deadlock_storm": (
        TwoPhasePolicy,
        {"num_entities": 20, "num_txns": 30, "accesses_per_txn": 2,
         "arrival_rate": 0.5, "hot_set_size": 4, "hot_traffic": 0.7},
    ),
    "long_transaction": (
        AltruisticPolicy,
        {"num_entities": 12, "num_short": 6, "short_start": 4},
    ),
    "random_access": (TwoPhasePolicy, {"num_entities": 8, "num_txns": 8}),
    "traversal": (DdagPolicy, {"nodes": 8, "num_txns": 5}),
    "dynamic_traversal": (DdagPolicy, {"nodes": 8, "num_txns": 5}),
}

#: ``outcome_digest`` per ``(seed, factory)``, equal at shards 1, 2 and 8
#: when the table was sharded.
OUTCOME_DIGESTS = {
    (0, "deadlock_storm"): "9414c295a467617b",
    (0, "dynamic_traversal"): "2e67abe8e4f2cfa6",
    (0, "long_transaction"): "b06db0f766e5d058",
    (0, "random_access"): "0ab1c90eb5d74167",
    (0, "stress"): "f52169cde1501489",
    (0, "traversal"): "ec1cfdd0ad63d5be",
    (1, "deadlock_storm"): "e618d7fe2892728d",
    (1, "dynamic_traversal"): "db5b05be9139a9dd",
    (1, "long_transaction"): "c183a395339a560b",
    (1, "random_access"): "2051526bbed218fb",
    (1, "stress"): "c38d7400044eb068",
    (1, "traversal"): "c75260ade9471f9a",
}

#: ``grid_digest`` of :data:`GRID_SPEC`, equal at shards 1 and 8 when the
#: table was sharded.
GRID_DIGEST = "73a3e6a03a4b11c5"

GRID_SPEC = GridSpec(
    policies=(PolicySpec(TwoPhasePolicy), PolicySpec(AltruisticPolicy)),
    workloads=(
        WorkloadSpec("deadlock_storm", {
            "num_entities": 20, "num_txns": 25, "accesses_per_txn": 2,
            "arrival_rate": 0.5, "hot_set_size": 4, "hot_traffic": 0.7,
        }),
    ),
    seeds=(0, 1),
    max_ticks=500_000,
    check_serializability=True,
)


def run_cell(factory_name, seed, **run_kwargs):
    policy_cls, kwargs = FACTORY_CELLS[factory_name]
    items, initial, context_kwargs = grid_factory(factory_name)(
        seed, **kwargs
    )
    return run_seed(
        policy_cls(), items, initial, seed,
        context_kwargs=context_kwargs,
        max_ticks=500_000,
        **run_kwargs,
    )


class TestTableLevelInvariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_op_sequences_are_shard_invariant(self, seed):
        """One seeded random op sequence: every return value and every
        observable view at each step matches what every shard count
        produced."""
        got = random_op_transcript(seed, LockTable())
        assert got == TABLE_DIGESTS[seed], (
            f"seed {seed}: lock-table transcript digest {got!r} differs "
            f"from the recorded {TABLE_DIGESTS[seed]!r}"
        )

    def test_upgrade_release_semantics_survive_sharding(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.SHARED)
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T2", "a", LockMode.SHARED)
        assert t.release("T1", "a", LockMode.SHARED) == []
        assert t.release("T1", "a", LockMode.EXCLUSIVE) == ["T2"]


class TestFullRunInvariance:
    @pytest.mark.parametrize("factory_name", sorted(GRID_FACTORIES))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_every_factory_is_shard_invariant(self, factory_name, seed):
        """Property: for every registered grid factory, a seeded run's
        whole :class:`SeedOutcome` (metric summary, work counters,
        serializability verdict) is the one every shard count produced."""
        assert factory_name in FACTORY_CELLS, (
            f"add a FACTORY_CELLS entry for new factory {factory_name!r}"
        )
        outcome = run_cell(factory_name, seed)
        assert outcome.error is None, f"seed run failed: {outcome.error}"
        got = outcome_digest(outcome)
        want = OUTCOME_DIGESTS[(seed, factory_name)]
        assert got == want, (
            f"{factory_name} seed {seed}: outcome digest {got!r} differs "
            f"from the recorded {want!r}"
        )

    def test_grid_cell_rows_identical_across_shard_counts(self):
        """End to end through the grid runner: the ``CellResult.row()``
        dicts and work means of a multi-cell grid are the ones every
        shard count produced."""
        got = grid_digest(run_grid(GRID_SPEC, workers=0))
        assert got == GRID_DIGEST, (
            f"grid digest {got!r} differs from the recorded {GRID_DIGEST!r}"
        )
