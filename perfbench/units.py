"""What one measured unit of a workload reports back to the harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class UnitResult:
    """One unit of work: its wall time and what it produced.

    ``fingerprint`` is a deterministic rendering of the unit's outputs: the
    same input must give the same fingerprint on every repetition, and for
    the pinned seed it must equal the committed pin.  ``errors`` holds one
    message per failed operation or failed check that needs no pin."""

    wall: float
    #: Completed work items (committed transactions, decided systems).
    work: int
    #: Operations attempted (transactions submitted, requests sent,
    #: systems handed to the decider).
    ops: int
    latencies_ms: List[float]
    fingerprint: str
    errors: List[str] = field(default_factory=list)
    #: Per-layer counters taken from the program's own results.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Blocked acquire → wake delays (service only).
    park_ms: List[float] = field(default_factory=list)


def add_counters(total: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]
