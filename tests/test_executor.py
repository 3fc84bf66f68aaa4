"""Executor invariance of the classify phase, pinned to the serial loop.

The classify phase used to fan its work out to a serial, a thread-pooled
or a process-backed executor over 1, 4 or 8 lock-table shards, and every
configuration had to produce the same :class:`SeedOutcome`.  The
executors are gone: classify is one serial loop.  The extra altruistic
cell below drove dependency-declaring sessions through every executor; the
outcome they all agreed on is kept as a recorded digest, so the serial
loop must keep reproducing it.

A digest moves only when scheduler behaviour moves.  If such a change is
intended, record the digest the failure message prints and say why in the
change log.
"""

import hashlib
import json

import pytest

from repro.policies import AltruisticPolicy
from repro.sim import grid_factory, run_seed

# Cells beyond the one-per-factory set: an altruistic run over the stress
# factory keeps dependency-declaring sessions covered.
EXTRA_CELLS = {
    "stress+altruistic": (
        "stress",
        AltruisticPolicy,
        {"num_entities": 30, "num_txns": 40, "arrival_rate": 1.0,
         "hot_fraction": 0.1},
    ),
}

#: Digest of each extra cell's seed-1 :class:`SeedOutcome`, equal for every
#: ``(lock_shards, shard_workers, executor)`` configuration when the
#: executors existed.
EXTRA_CELL_DIGESTS = {
    "stress+altruistic": "b229f481460c09a0",
}


def outcome_digest(outcome) -> str:
    text = json.dumps(
        [outcome.summary, outcome.work, outcome.serializable, outcome.error],
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestExecutorEquivalence:
    @pytest.mark.parametrize("cell", sorted(EXTRA_CELLS))
    def test_extra_cells_are_executor_invariant(self, cell):
        factory_name, policy_cls, kwargs = EXTRA_CELLS[cell]
        seed = 1
        items, initial, context_kwargs = grid_factory(factory_name)(
            seed, **kwargs
        )
        outcome = run_seed(
            policy_cls(), items, initial, seed,
            context_kwargs=context_kwargs,
            max_ticks=500_000,
        )
        assert outcome.error is None, f"seed run failed: {outcome.error}"
        got = outcome_digest(outcome)
        assert got == EXTRA_CELL_DIGESTS[cell], (
            f"{cell}: outcome digest {got!r} differs from the recorded "
            f"{EXTRA_CELL_DIGESTS[cell]!r}"
        )
