"""Hash-seed determinism: the same inputs give byte-identical output
whatever ``PYTHONHASHSEED`` the interpreter runs under.

String hashing is salted per process, so any order that leaks from a
``set`` or ``dict`` of strings into a schedule, a victim choice, a work
counter or a service reply differs between hash seeds.  The static rule
RPR001 flags such iterations in the source; this test is its dynamic
half.  It runs :func:`render` in two fresh interpreters, under
``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=1``, and compares the bytes
they print.

Run this file directly (``PYTHONPATH=src python
tests/test_hash_seed_determinism.py``) to print the compared text.
"""

import asyncio
import os
import subprocess
import sys

from repro.policies import AltruisticPolicy, TwoPhasePolicy
from repro.service import LockService, encode
from repro.sim import Simulator, grid_factory

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: One small, contended seed of each open-system generator.
SIM_CELLS = (
    ("stress", 3, {"num_entities": 40, "num_txns": 60,
                   "arrival_rate": 0.5, "hot_fraction": 0.2}),
    ("deadlock_storm", 5, {"num_entities": 30, "num_txns": 50,
                           "accesses_per_txn": 2, "arrival_rate": 0.5,
                           "hot_set_size": 4, "hot_traffic": 0.7}),
)
POLICIES = (TwoPhasePolicy, AltruisticPolicy)


def render_sim() -> list:
    lines = []
    for factory, seed, kwargs in SIM_CELLS:
        items, initial, context_kwargs = grid_factory(factory)(seed, **kwargs)
        for policy in POLICIES:
            result = Simulator(
                policy(), seed=seed, context_kwargs=context_kwargs
            ).run(items, initial)
            m = result.metrics
            lines.append(f"== {factory} seed={seed} {policy.__name__}")
            lines.append(f"committed {list(result.committed)}")
            lines.append(f"aborted {list(result.aborted)}")
            lines.append(f"victims {list(m.deadlock_victims)}")
            lines.append(f"work {sorted(m.work_summary().items())}")
            lines.append(f"schedule {[str(e) for e in result.schedule.events]}")
    return lines


#: The scripted session: (actor, request) pairs sent in order.  Alice and
#: Bob each take one X lock, Bob tries to release Alice's lock (denied),
#: then each requests the other's entity: Bob parks, Alice closes the
#: cycle and deadlock resolution picks a victim; the survivor commits.
SCRIPT = (
    ("alice", {"op": "begin", "txn": "a1"}),
    ("bob", {"op": "begin", "txn": "b1"}),
    ("alice", {"op": "acquire", "txn": "a1", "entity": "x", "mode": "X"}),
    ("bob", {"op": "acquire", "txn": "b1", "entity": "y", "mode": "X"}),
    ("bob", {"op": "release", "txn": "a1", "entity": "x"}),
    ("bob", {"op": "acquire", "txn": "b1", "entity": "x", "mode": "S"}),
    ("alice", {"op": "acquire", "txn": "a1", "entity": "y", "mode": "S"}),
    ("alice", {"op": "locks", "txn": "a1"}),
    ("bob", {"op": "locks", "txn": "b1"}),
    ("alice", {"op": "commit", "txn": "a1"}),
    ("bob", {"op": "commit", "txn": "b1"}),
)


async def _session() -> list:
    """Play :data:`SCRIPT` through in-process connections (the service's
    ``memory_pair`` transport); every reply, every wake event and the
    audit log are the output."""
    service = LockService()
    clients = {actor: await service.connect(actor) for actor in ("alice", "bob")}
    lines = []
    parked = []
    for actor, message in SCRIPT:
        reply = await clients[actor].request(**message)
        lines.append(f"{actor} <- {encode(reply).decode().strip()}")
        if reply["outcome"] == "blocked":
            parked.append((actor, reply["id"]))
    for actor, rid in parked:
        wake = await asyncio.wait_for(clients[actor].wait_wake(rid), 10)
        lines.append(f"{actor} <- {encode(wake).decode().strip()}")
    await service.drain()
    for client in clients.values():
        await client.close()
    lines.extend(f"audit {entry}" for entry in service.audit.entries())
    return lines


def render() -> str:
    return "\n".join(render_sim() + asyncio.run(_session())) + "\n"


def _run_under(hash_seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env, capture_output=True, check=True, timeout=120,
    ).stdout


def test_output_is_identical_under_two_hash_seeds():
    first, second = _run_under("0"), _run_under("1")
    assert b"== deadlock_storm" in first and b"audit " in first
    if first != second:
        a, b = first.decode().splitlines(), second.decode().splitlines()
        diff = next(
            (i, x, y) for i, (x, y) in enumerate(zip(a, b)) if x != y
        ) if len(a) == len(b) else ("line count", len(a), len(b))
        raise AssertionError(f"output differs between hash seeds: {diff}")


if __name__ == "__main__":
    sys.stdout.write(render())
