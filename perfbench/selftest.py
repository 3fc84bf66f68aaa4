"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They check the harness, not the program: the tracer's self-time
arithmetic on a synthetic call tree, that a planted mismatch against the
pins fails the benchmark command, and that a stalled service request is
counted as failed by its deadline instead of hanging the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time
import types
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from layers import SPANS, per_layer_catalog, per_layer_values  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        # root [0,10] has children a [1,4] and b [5,9]; b has c [6,7].
        parents = [-1, 0, 0, 2]
        starts = [0.0, 1.0, 5.0, 6.0]
        ends = [10.0, 4.0, 9.0, 7.0]
        self.assertEqual(tracer_mod.self_times(parents, starts, ends),
                         [3.0, 3.0, 3.0, 1.0])

    def test_overlapping_children_count_their_union(self):
        parents = [-1, 0, 0]
        starts = [0.0, 2.0, 4.0]
        ends = [10.0, 5.0, 8.0]
        self.assertEqual(tracer_mod.self_times(parents, starts, ends)[0], 4.0)

    def test_wrapped_call_tree(self):
        module = types.ModuleType("perfbench_selftest_fake")

        def inner():
            return "x"

        def outer():
            return module.inner() + module.inner()

        module.inner, module.outer = inner, outer
        sys.modules[module.__name__] = module
        clock = FakeClock()
        saved = tracer_mod.time.perf_counter
        tracer_mod.time.perf_counter = clock
        try:
            t = tracer_mod.Tracer()
            self.assertTrue(t.install("fake.outer", [f"{module.__name__}:outer"]))
            self.assertTrue(t.install("fake.inner", [f"{module.__name__}:inner"]))
            self.assertFalse(t.install("fake.gone", [f"{module.__name__}:deleted"]))
            self.assertEqual(module.outer(), "xx")
        finally:
            tracer_mod.time.perf_counter = saved
            t.uninstall()
            del sys.modules[module.__name__]
        # Clock reads: outer starts 1; inner 2..3; inner 4..5; outer ends 6.
        self.assertEqual(t.summary(), {"fake.outer": (1, 3.0), "fake.inner": (2, 2.0)})
        self.assertEqual(t.absent, ["fake.gone"])
        self.assertIs(module.outer, outer)
        self.assertEqual(list(t.span_parent), [-1, 0, 0])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.spans.json")
            tracer_mod.write_spans(t, path)
            with open(path) as src:
                spans = json.load(src)
        self.assertEqual(spans["names"], t.names)
        self.assertEqual(spans["parent"], [-1, 0, 0])
        self.assertEqual(spans["end"], list(t.span_end))

    def test_absent_entry_point_reads_as_none(self):
        t = tracer_mod.Tracer()
        name, _ = SPANS[0]
        t.install(name, ["repro.sim.scheduler:NoSuchClass.run"])
        values = per_layer_values(t, {}, [], 1.0)
        self.assertIsNone(values[f"{name}.calls"])
        self.assertIsNone(values[f"{name}.self_s"])
        self.assertEqual(values["trace.overhead"], 1.0)


def _run_command(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class PinnedCheckTest(unittest.TestCase):
    ARGS = ["--workload", "verify_corpus", "--seconds", "0", "--trace", "0"]

    def test_planted_mismatch_fails_the_command(self):
        with open(run.PINNED_PATH) as src:
            pins = json.load(src)
        first = pins["verify_corpus"][0]
        pins["verify_corpus"][0] = ("U" if first[0] == "S" else "S") + first[1:]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pinned.json")
            with open(path, "w") as out:
                json.dump(pins, out)
            with mock.patch.object(run, "PINNED_PATH", path):
                code, result = _run_command(self.ARGS + ["--seed", "0"])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_holdout_seed_runs_unpinned_checks(self):
        code, result = _run_command(self.ARGS + ["--seed", "7"])
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.E2E_UNITS))


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_harness(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as src:
            bench = json.load(src)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.E2E_UNITS.items()))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         per_layer_catalog())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.workloads()))


class DeadlineTest(unittest.TestCase):
    def test_stall_counts_as_failed(self):
        from service_load import TxnScript, run_unit

        # More loops than in-flight slots on one connection, all after the
        # same exclusive lock: the parked acquires take every slot, the
        # server stops reading, and the holder's commit is never read.
        loops = [[TxnScript(f"alice.{i}.0", (("h0", "X"),), None, "locks",
                            False, "commit")] for i in range(8)]
        t0 = time.perf_counter()
        result = run_unit([loops], max_inflight=4, deadline=0.5)
        self.assertLess(time.perf_counter() - t0, 10.0)
        self.assertTrue(any("unanswered" in e for e in result.errors), result.errors)


if __name__ == "__main__":
    unittest.main()
