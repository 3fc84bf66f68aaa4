"""The layer map of the traced pass: which program entry points are
wrapped, under which span names, and the per-layer counters derived from
the program's own results.

Each entry point is patched where its callers look it up (see NOTES.md
for the layer → end-to-end map).  The order of ``SPANS`` and ``DERIVED``
is the order of the per-layer metrics in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from tracer import Tracer
from units import nearest_rank

#: (span name, targets).  A target is ``module:attr`` (a module global the
#: caller resolves at call time) or ``module:Class.method``.
SPANS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.scheduler.run", ("repro.sim.scheduler:Simulator.run",)),
    ("sim.admission.classify", ("repro.sim.admission:Classifier.classify",)),
    ("policies.altruistic.admission",
     ("repro.policies.altruistic:AltruisticSession.admission",)),
    ("sim.lock_table.blockers", ("repro.sim.lock_table:LockTable.blockers",)),
    ("sim.lock_table.acquire", ("repro.sim.lock_table:LockTable.acquire",)),
    ("sim.lock_table.release_all_wake",
     ("repro.sim.lock_table:LockTable.release_all_wake",)),
    ("sim.waits_for.find_cycle", ("repro.sim.waits_for:WaitsForGraph.find_cycle",)),
    ("sim.deadlock.pick_victim",
     ("repro.sim.scheduler:pick_victim", "repro.kernel.core:pick_victim")),
    ("kernel.lifecycle.commit", ("repro.kernel.lifecycle:KernelRun.commit",)),
    ("kernel.lifecycle.abort", ("repro.kernel.lifecycle:KernelRun.abort",)),
    ("sim.event_log.assemble", ("repro.sim.scheduler:_assemble",)),
    ("core.schedules.assert_legal", ("repro.core.schedules:Schedule.assert_legal",)),
    ("core.schedules.assert_proper", ("repro.core.schedules:Schedule.assert_proper",)),
    ("service.protocol.encode", ("repro.service.server:encode",)),
    ("service.protocol.decode", ("repro.service.server:decode",)),
    ("service.auth.check", ("repro.service.auth:Authorizer.check",)),
    ("kernel.core.begin", ("repro.kernel.core:LockKernel.begin",)),
    ("kernel.core.acquire", ("repro.kernel.core:LockKernel.acquire",)),
    ("kernel.core.release", ("repro.kernel.core:LockKernel.release",)),
    ("kernel.core.commit", ("repro.kernel.core:LockKernel.commit",)),
    ("kernel.core.abort", ("repro.kernel.core:LockKernel.abort",)),
    ("kernel.audit.append", ("repro.kernel.audit:AuditLog.append",)),
    ("core.safety.find_nonserializable_schedule",
     ("repro.core.safety:find_nonserializable_schedule",)),
    ("core.canonical.find_canonical_witness",
     ("repro.core.safety:find_canonical_witness",)),
    ("core.completion.find_completion",
     ("repro.core.safety:find_completion", "repro.core.canonical:find_completion")),
)

#: (metric, unit) for counters derived from the units' results.
DERIVED: Tuple[Tuple[str, str], ...] = (
    ("sim.scheduler.ticks", "count"),
    ("sim.admission.classify_per_tick", "ratio"),
    ("sim.admission.admission_checks", "count"),
    ("sim.admission.invalidations", "count"),
    ("sim.waits_for.visits_per_detection", "ratio"),
    ("sim.deadlock.victims", "count"),
    ("sim.deadlock.restarts", "count"),
    ("sim.deadlock.commit_ratio", "ratio"),
    ("service.auth.denials", "count"),
    ("kernel.core.acquire.granted", "count"),
    ("kernel.core.acquire.blocked", "count"),
    ("kernel.core.acquire.victim", "count"),
    ("kernel.core.live_at_acquire_mean", "count"),
    ("service.park_p50_ms", "ms"),
    ("service.park_p99_ms", "ms"),
    ("kernel.audit.entries_per_request", "ratio"),
    ("core.safety.nodes_explored", "count"),
    ("core.canonical.candidates_considered", "count"),
    ("trace.overhead", "ratio"),
)


def per_layer_catalog() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out: List[Tuple[str, str]] = []
    for name, _ in SPANS:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    out.extend(DERIVED)
    return out


def install_all(tracer: Tracer) -> None:
    for name, targets in SPANS:
        tracer.install(name, targets)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(
    tracer: Tracer,
    counters: Dict[str, float],
    park_ms: Sequence[float],
    overhead: float,
) -> Dict[str, Optional[float]]:
    """Every catalogued metric; ``None`` marks a span whose entry point no
    longer exists (absent, not zero)."""
    spans = tracer.summary()
    values: Dict[str, Optional[float]] = {}
    for name, _ in SPANS:
        if name in tracer.absent:
            values[f"{name}.calls"] = values[f"{name}.self_s"] = None
            continue
        calls, self_s = spans.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    c = counters.get
    values.update({
        "sim.scheduler.ticks": c("ticks", 0),
        "sim.admission.classify_per_tick": _ratio(c("classify_checks", 0), c("ticks", 0)),
        "sim.admission.admission_checks": c("admission_checks", 0),
        "sim.admission.invalidations": c("invalidations", 0),
        "sim.waits_for.visits_per_detection":
            _ratio(c("cycle_visits", 0), c("cycle_detections", 0)),
        "sim.deadlock.victims": c("deadlocks", 0),
        "sim.deadlock.restarts": c("restarts", 0),
        "sim.deadlock.commit_ratio":
            _ratio(c("committed", 0), c("committed", 0) + c("aborted", 0)),
        "service.auth.denials": c("denials", 0),
        "kernel.core.acquire.granted": c("acquire_granted", 0),
        "kernel.core.acquire.blocked": c("acquire_blocked", 0),
        "kernel.core.acquire.victim": c("victims", 0),
        "kernel.core.live_at_acquire_mean": _ratio(c("live_sum", 0), c("live_samples", 0)),
        "service.park_p50_ms": nearest_rank(park_ms, 0.50),
        "service.park_p99_ms": nearest_rank(park_ms, 0.99),
        "kernel.audit.entries_per_request":
            _ratio(c("audit_entries", 0), c("requests", 0)),
        "core.safety.nodes_explored": c("nodes_explored", 0),
        "core.canonical.candidates_considered": c("candidates_considered", 0),
        "trace.overhead": overhead,
    })
    return values
