"""The simulator and verifier workloads (the service one is in
``service_load.py``).

Every workload turns ``--seed`` into several independent sub-inputs
during set-up, and the harness runs full passes over them, one measured
unit at a time, so a run averages over many inputs instead of resting on
one.  The
program sees only the generated inputs, through its public API:
``grid_factory`` + ``Simulator(...).run`` for the simulators and
``random_locked_system`` + ``decide_safety`` for the verifier.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import analyze_two_phase, decide_safety
from repro.enumeration import corpus_initial_state, random_locked_system
from repro.policies import AltruisticPolicy, TwoPhasePolicy
from repro.sim import Simulator, grid_factory
from repro.sim import scheduler as _scheduler

from units import UnitResult


def sub_seed(seed: int, j: int) -> int:
    """Seed of sub-input ``j`` of a run seeded ``seed``."""
    return seed * 1000 + j


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimSpec:
    factory: str
    kwargs: Dict[str, object]
    policies: Tuple[type, ...]


#: Open system: wide entity space, no hot set, staggered arrivals at
#: 0.085/tick — about one classification per tick and almost no
#: deadlocks, so the tick loop, admission, lock table and schedule
#: assembly dominate.  The Altruistic cell runs the same stream through
#: invalidation channels and policy waits.
SIM_OPEN = SimSpec(
    "stress",
    {"num_entities": 8000, "num_txns": 500, "arrival_rate": 0.085,
     "hot_fraction": 0.0},
    (TwoPhasePolicy, AltruisticPolicy),
)

#: Deadlock storm under 2PL: unordered access sets on a hot set of 8,
#: arrivals at 0.4/tick — waits-for maintenance, cycle detection, victim
#: choice and abort/restart do most of the work.
SIM_STORM = SimSpec(
    "deadlock_storm",
    {"num_entities": 600, "num_txns": 500, "accesses_per_txn": 2,
     "arrival_rate": 0.4, "hot_set_size": 8, "hot_traffic": 0.5},
    (TwoPhasePolicy,),
)


#: The simulator's tick driver and its per-tick arrival step.  The driver
#: calls ``admit_arrivals`` once at the start of every tick, right after
#: the tick counter moves, so wrapping it reads the wall clock at each
#: tick's start without touching the program.
_DRIVER = getattr(_scheduler, "_Run", None)
_ADMIT = getattr(_DRIVER, "admit_arrivals", None)


@contextmanager
def tick_clock() -> Iterator[Optional[Dict[int, float]]]:
    """Within the block, fill the yielded dict with ``tick ->
    perf_counter()`` at the start of every simulator tick (about 0.3 us a
    tick).  Yields None when the driver's arrival step no longer exists."""
    if _ADMIT is None:
        yield None
        return
    starts: Dict[int, float] = {}
    clock = time.perf_counter

    def admit_arrivals(run):
        starts[run.metrics.ticks] = clock()
        return _ADMIT(run)

    _DRIVER.admit_arrivals = admit_arrivals
    try:
        yield starts
    finally:
        _DRIVER.admit_arrivals = _ADMIT


def sim_setup(spec: SimSpec, seed: int, units: int) -> List[tuple]:
    """Generate the run's ``units`` arrival streams."""
    make = grid_factory(spec.factory)
    return [make(sub_seed(seed, j), **spec.kwargs) for j in range(units)]


def sim_unit(spec: SimSpec, streams: Sequence[tuple], seed: int, j: int) -> UnitResult:
    """Run stream ``j`` once under each of the spec's policies."""
    items, initial, context_kwargs = streams[j]
    names = {item.name for item in items}
    wall = 0.0
    committed = 0
    latencies: List[float] = []
    errors: List[str] = []
    cells = []
    counters: Dict[str, float] = {}
    for policy in spec.policies:
        sim = Simulator(policy(), seed=sub_seed(seed, j), context_kwargs=context_kwargs)
        with tick_clock() as starts:
            t0 = time.perf_counter()
            result = sim.run(items, initial, validate=True)
            dt = time.perf_counter() - t0
        wall += dt
        m = result.metrics
        done, dropped = set(result.committed), set(result.aborted)
        if done & dropped or done | dropped != names or m.committed != len(done):
            errors.append(
                f"{policy.__name__} stream {j}: {len(done)} committed + "
                f"{len(dropped)} dropped does not partition {len(names)} items"
            )
        committed += len(done)
        records = [r for r in m.records.values() if r.committed]
        if starts is not None:
            # Wall time from the start of the admission tick to the start
            # of the commit tick: slow ticks weigh on the transactions
            # that lived through them.
            latencies.extend(
                1000.0 * (starts[r.end_tick] - starts[r.start_tick]) for r in records
            )
        else:
            per_tick_ms = 1000.0 * dt / m.ticks
            latencies.extend(r.latency * per_tick_ms for r in records)
        cells.append([
            policy.__name__, m.summary(), list(result.committed),
            list(result.aborted), list(m.deadlock_victims),
        ])
        work = m.work_summary()
        for key, value in (
            ("ticks", m.ticks),
            ("committed", m.committed),
            ("aborted", m.aborted),
            ("restarts", m.restarts),
            ("deadlocks", m.deadlocks),
            ("classify_checks", work["classify_checks"]),
            ("admission_checks", work["admission_checks"]),
            ("invalidations", work["invalidations"]),
            ("cycle_detections", work["cycle_detections"]),
            ("cycle_visits", work["cycle_visits"]),
        ):
            counters[key] = counters.get(key, 0) + value
    return UnitResult(
        wall=wall,
        work=committed,
        ops=len(items) * len(spec.policies),
        latencies_ms=latencies,
        fingerprint=digest(cells),
        errors=errors,
        counters=counters,
    )


# ----------------------------------------------------------------------
# Verifier workload
# ----------------------------------------------------------------------

#: The corpus shape: random_locked_system(3 txns, 3 entities, 3 steps,
#: style="mixed").
CORPUS_SHAPE = {"num_txns": 3, "num_entities": 3, "steps_per_txn": 3, "style": "mixed"}

#: Systems per unit, by how many of the 3 transactions are two-phase.
#: Decide time depends mostly on that count (all-2PL systems take ~2 ms,
#: systems with no 2PL transaction ~170 ms), so each unit holds the
#: "mixed" generator's natural shares (5/24/45/26 % over 3,000 draws) as
#: fixed quotas; left free, the share of slow systems alone moves a run's
#: throughput by more than 10 % from seed to seed.
STRATUM_QUOTAS = {0: 1, 1: 5, 2: 9, 3: 5}

INITIAL = corpus_initial_state(CORPUS_SHAPE["num_entities"])


def two_phase_count(system) -> int:
    return sum(1 for t in system if analyze_two_phase(t).is_two_phase)


def verify_setup(seed: int, units: int) -> List[list]:
    """Draw systems from one seeded stream and deal them into ``units``
    batches with the fixed per-stratum quotas."""
    rng = random.Random(seed)
    need = {k: q * units for k, q in STRATUM_QUOTAS.items()}
    pools: Dict[int, list] = {k: [] for k in STRATUM_QUOTAS}
    while any(len(pools[k]) < need[k] for k in need):
        system = random_locked_system(seed=rng, **CORPUS_SHAPE)
        k = two_phase_count(system)
        if len(pools[k]) < need[k]:
            pools[k].append(system)
    return [
        [s for k, q in STRATUM_QUOTAS.items() for s in pools[k][j * q:(j + 1) * q]]
        for j in range(units)
    ]


def verify_unit(batches: Sequence[list], seed: int, j: int) -> UnitResult:
    """Decide every system of batch ``j`` with both deciders."""
    verdicts = []
    errors: List[str] = []
    latencies: List[float] = []
    nodes = candidates = 0
    t0 = time.perf_counter()
    for i, system in enumerate(batches[j]):
        t1 = time.perf_counter()
        verdict = decide_safety(system, INITIAL)
        latencies.append(1000.0 * (time.perf_counter() - t1))
        if not verdict.agree:
            errors.append(f"batch {j} system {i}: brute force and canonical disagree")
        verdicts.append("S" if verdict.safe else "U")
        nodes += verdict.bruteforce_stats.nodes_explored
        candidates += verdict.canonical_stats.candidates_considered
    wall = time.perf_counter() - t0
    return UnitResult(
        wall=wall,
        work=len(batches[j]),
        ops=len(batches[j]),
        latencies_ms=latencies,
        fingerprint="".join(verdicts),
        errors=errors,
        counters={"nodes_explored": nodes, "candidates_considered": candidates},
    )
