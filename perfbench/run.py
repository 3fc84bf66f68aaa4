"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sim_open --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped: it
runs full passes over the seed's sub-inputs until ``--seconds`` have gone
by (at least ``MIN_PASSES``), so every run covers the same inputs whatever
the machine's speed, and reports the median of each figure over the
passes.  ``--trace 1`` runs the same measured passes, then runs the
workload's first units again with every layer entry point wrapped
(``layers.py``), and reports the per-layer metrics plus ``trace.overhead``,
the traced wall time over the untraced wall time of the same units.  Spans
are written once, at the end, to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
figures for people, under the names the workload's users know them by.
The exit code is 0 only when every check passed.

Run from the root of a checkout: the program is imported from ``src/``.
See NOTES.md for the workloads, the checks and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED_PATH = os.path.join(HERE, "pinned.json")
TRACE_DIR = os.path.join(HERE, "out")

#: The seed whose outputs are pinned in ``pinned.json``; any other seed
#: is a holdout and runs the unpinned checks only.
PINNED_SEED = 0
#: Set-up runs before the measured passes; one more runs after each
#: pass, so the samples span the run.  ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Fewest full passes over the sub-inputs in one run; each end-to-end
#: figure is the median over the passes.
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    #: Independent sub-inputs generated from the seed: one pass runs
    #: each of them once.
    units: int
    #: Units run again under the tracer when ``--trace 1``.
    traced_units: int
    #: ``(seed, units) -> inputs``.
    setup: Callable[[int, int], object]
    #: ``(inputs, seed, j) -> UnitResult``.
    unit: Callable
    #: What one work item is, for the human-readable report.
    work_name: str
    latency_name: str


def workloads() -> Dict[str, Workload]:
    from service_load import run_unit, service_setup
    from workloads import (
        SIM_OPEN, SIM_STORM, sim_setup, sim_unit, verify_setup, verify_unit,
    )

    return {
        "sim_open": Workload(
            8, 2, partial(sim_setup, SIM_OPEN), partial(sim_unit, SIM_OPEN),
            "txn_per_s", "txn_time_in_system"),
        "sim_storm": Workload(
            10, 2, partial(sim_setup, SIM_STORM), partial(sim_unit, SIM_STORM),
            "txn_per_s", "txn_time_in_system"),
        "service_hot": Workload(
            12, 4, service_setup,
            lambda inputs, seed, j: run_unit(inputs[j]),
            "txn_per_s", "req"),
        "verify_corpus": Workload(
            12, 3, verify_setup, verify_unit, "systems_per_s", "system"),
    }


class Checker:
    """Collects failed checks: per-unit errors, outputs that change when
    the same input runs again, and (for the pinned seed) outputs that
    differ from the pins."""

    def __init__(self, pins: Optional[List[str]]) -> None:
        self.pins = pins
        self.seen: Dict[int, str] = {}
        self.errors: List[str] = []
        self.attempted = 0

    def add(self, j: int, result) -> None:
        self.attempted += result.ops
        self.errors.extend(result.errors)
        first = self.seen.setdefault(j, result.fingerprint)
        if first != result.fingerprint:
            self.errors.append(
                f"unit {j}: output changed on repetition: {first!r} -> "
                f"{result.fingerprint!r}")
        if self.pins is not None and self.pins[j] != result.fingerprint:
            self.errors.append(
                f"unit {j}: output {result.fingerprint!r} differs from the pin "
                f"{self.pins[j]!r}")


def load_pins(workload: str, seed: int, units: int) -> Optional[List[str]]:
    if seed != PINNED_SEED:
        return None
    with open(PINNED_PATH) as src:
        pins = json.load(src).get(workload)
    if not isinstance(pins, list) or len(pins) != units:
        raise SystemExit(f"{PINNED_PATH}: no {units} pins for {workload}")
    return pins


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl: Workload, inputs, seed: int, seconds: float,
            checker: Checker, between_passes: Callable[[], object]) -> List[list]:
    """Warm up on unit 0, then run full passes (each sub-input once, in
    order) until ``seconds`` have passed and at least ``MIN_PASSES`` are
    done, calling ``between_passes`` after each.  A failed unit does not
    end the run: it is counted, and the figures still cover every pass."""
    checker.add(0, wl.unit(inputs, seed, 0))
    passes: List[list] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        one = []
        for j in range(wl.units):
            result = wl.unit(inputs, seed, j)
            checker.add(j, result)
            # Compact samples, so peak RSS does not grow with the pass count.
            result.latencies_ms = array("d", result.latencies_ms)
            result.park_ms = array("d", result.park_ms)
            one.append(result)
        passes.append(one)
        between_passes()
    return passes


def pass_figures(one: list) -> Dict[str, float]:
    """One pass's throughput and latency percentiles."""
    from units import nearest_rank

    latencies = [x for r in one for x in r.latencies_ms]
    return {
        "work_per_s": sum(r.work for r in one) / sum(r.wall for r in one),
        "latency_p50_ms": nearest_rank(latencies, 0.50),
        "latency_p90_ms": nearest_rank(latencies, 0.90),
        "latency_p99_ms": nearest_rank(latencies, 0.99),
    }


def end_to_end(passes: List[list], setup_times, rss_mb: float) -> Dict[str, float]:
    """Each timed figure is the median over the passes, which all ran the
    same inputs: a burst of machine noise in one pass does not move it."""
    figures = [pass_figures(one) for one in passes]
    e2e = {"setup_s": statistics.median(setup_times)}
    for key in ("work_per_s", "latency_p50_ms", "latency_p90_ms"):
        e2e[key] = statistics.median(f[key] for f in figures)
    e2e["peak_rss_mb"] = rss_mb
    return e2e


E2E_UNITS = {
    "setup_s": "s", "work_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "peak_rss_mb": "MiB",
}


def traced_pass(wl: Workload, name: str, inputs, seed: int, passes,
                checker: Checker) -> Dict[str, Optional[float]]:
    from layers import install_all, per_layer_values
    from tracer import Tracer, write_spans
    from units import add_counters

    tracer = Tracer()
    install_all(tracer)
    try:
        traced = [wl.unit(inputs, seed, j) for j in range(wl.traced_units)]
    finally:
        tracer.uninstall()
    counters: Dict[str, float] = {}
    for j, result in enumerate(traced):
        checker.add(j, result)
        add_counters(counters, result.counters)
    untraced_wall = sum(
        statistics.median(one[j].wall for one in passes)
        for j in range(wl.traced_units)
    )
    overhead = sum(r.wall for r in traced) / untraced_wall
    park_ms = [x for one in passes for r in one for x in r.park_ms]
    values = per_layer_values(tracer, counters, park_ms, overhead)
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{name}-seed{seed}.spans.json")
    write_spans(tracer, path)
    print(f"  traced {wl.traced_units} units: {len(tracer)} spans -> "
          f"{os.path.relpath(path, ROOT)}")
    if tracer.absent:
        print(f"  absent entry points: {', '.join(tracer.absent)}")
    return values


def report(name: str, wl: Workload, passes, e2e: Dict[str, float],
           seconds_measured: float) -> None:
    """The figures again for people, under the names the workload's users
    know them by, plus the tail percentile that is too seed-dependent on
    verify_corpus to be a gated metric."""
    figures = [pass_figures(one) for one in passes]
    samples = sum(len(r.latencies_ms) for r in passes[0])
    print(f"{name}: {len(passes)} passes over {wl.units} units in "
          f"{seconds_measured:.1f} s after one warm-up unit; {samples} latency "
          f"samples ({wl.latency_name}) per pass; medians over the passes")
    lat = wl.latency_name
    rows = [
        ("setup_s", e2e["setup_s"], "s"),
        (wl.work_name, e2e["work_per_s"], "1/s"),
        (f"{lat}_p50_ms", e2e["latency_p50_ms"], "ms"),
        (f"{lat}_p90_ms", e2e["latency_p90_ms"], "ms"),
        (f"{lat}_p99_ms", statistics.median(f["latency_p99_ms"] for f in figures), "ms"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MiB"),
    ]
    if name == "service_hot":
        req_per_s = statistics.median(
            sum(r.counters["requests"] for r in one) / sum(r.wall for r in one)
            for one in passes)
        rows.append(("req_per_s", req_per_s, "1/s"))
    for label, value, unit in rows:
        print(f"  {label:<32} {value:14.4f} {unit}")


def run(args) -> int:
    wl = workloads()[args.workload]
    pins = load_pins(args.workload, args.seed, wl.units)
    setup_times: List[float] = []

    def set_up():
        # Each set-up starts from a collected heap: without this,
        # collections of earlier garbage land in random repeats.
        gc.collect()
        t0 = time.perf_counter()
        made = wl.setup(args.seed, wl.units)
        setup_times.append(time.perf_counter() - t0)
        return made

    for _ in range(SETUP_REPEATS):
        inputs = None
        inputs = set_up()
    checker = Checker(pins)
    metrics: Dict[str, dict] = {}
    try:
        t0 = time.perf_counter()
        passes = measure(wl, inputs, args.seed, args.seconds, checker, set_up)
        measured = time.perf_counter() - t0
        rss_mb = peak_rss_mb()  # before the samples are pooled for percentiles
        e2e = end_to_end(passes, setup_times, rss_mb)
        report(args.workload, wl, passes, e2e, measured)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
        if args.trace:
            from layers import per_layer_catalog

            values = traced_pass(wl, args.workload, inputs, args.seed, passes, checker)
            metrics = {
                key: {"value": values[key], "unit": unit}
                for key, unit in per_layer_catalog()
            }
    except Exception:  # a crashing unit is a failed check, never a hang
        traceback.print_exc()
        checker.errors.append("unit raised: " + traceback.format_exc(limit=1).strip())
    failed = len(checker.errors)
    print(f"  {'error_rate':<32} {failed / max(checker.attempted, 1):14.6f} "
          f"({failed} failed / {checker.attempted} attempted)")
    for error in checker.errors[:10]:
        print(f"  FAILED: {error}")
    correct = not checker.errors
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": len(checker.errors),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def write_pinned(names: List[str]) -> int:
    """Record every unit's output for the pinned seed."""
    table = workloads()
    pinned = {}
    if os.path.exists(PINNED_PATH):
        with open(PINNED_PATH) as src:
            pinned = json.load(src)
    for name in names:
        wl = table[name]
        inputs = wl.setup(PINNED_SEED, wl.units)
        pinned[name] = [
            wl.unit(inputs, PINNED_SEED, j).fingerprint for j in range(wl.units)
        ]
        print(f"pinned {name}: {wl.units} units")
    with open(PINNED_PATH, "w") as out:
        json.dump(pinned, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("sim_open", "sim_storm", "service_hot", "verify_corpus"))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pinned", action="store_true",
                        help="record the pinned seed's outputs (all workloads, "
                             "or --workload) into pinned.json and exit")
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    for path in (HERE, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro was imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.write_pinned:
        names = [args.workload] if args.workload else sorted(workloads())
        return write_pinned(names)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
