"""Self-tests for the benchmark's own machinery.

    python3 perfbench/selftest.py

They check the tail-percentile rule, the host-speed correction, that a wrong
expected verdict shows up as a failed op, that a search visiting fewer
candidates keeps the op count, that self times add up to span time, and that
BENCHMARK.json names exactly the metrics the runs print.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import time
import unittest

import hostclock
import run
import workloads
from hostclock import HostClock
from spans import Tracer


class TailRule(unittest.TestCase):
    def test_at_least_ten_samples_beyond(self):
        for n in (20, 50, 111, 191, 280, 1000, 2500, 10000, 200000):
            p = run.tail_percentile(n)
            values = list(range(n))
            threshold = run.percentile(values, p)
            beyond = sum(1 for v in values if v > threshold)
            self.assertGreaterEqual(beyond, 10, (n, p))
            higher = [q for q in run.TAIL_LADDER if q > p]
            if higher:
                self.assertLess(n * (100 - higher[0]) / 100, 10, (n, p))

    def test_too_few_samples(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)


def synthetic_clock(took: list[float]) -> HostClock:
    """Handler calls one second apart and 0.1 s long, the k-th timing the
    reference at ``took[k]`` seconds."""
    host = HostClock()
    host.starts = [float(k) for k in range(len(took))]
    host.ends = [k + 0.1 for k in range(len(took))]
    host.took = list(took)
    host.speed = list(took)
    return host


class HostSpeed(unittest.TestCase):
    def test_handler_time_is_left_out(self):
        host = synthetic_clock([0.1] * 4)
        # 0.5 + 0.9 + 0.4 s of program time between the readings
        self.assertAlmostEqual(host.seconds(0.5, 2.5), 1.8 * hostclock.REF_S / 0.1)

    def test_slow_stretches_count_less(self):
        steady = synthetic_clock([0.1] * 4).seconds(0.5, 2.5)
        slow = synthetic_clock([0.2] * 4).seconds(0.5, 2.5)
        self.assertAlmostEqual(slow, steady / 2)

    def test_interval_must_lie_inside_the_readings(self):
        with self.assertRaises(ValueError):
            synthetic_clock([0.1] * 4).seconds(2.5, 3.5)

    def test_clock_restores_the_signal_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with HostClock() as host:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.05:
                pass
            t1 = time.perf_counter()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(len(host.took), 2)
        self.assertGreater(host.seconds(t0, t1), 0.0)

    def test_pass_without_op_spans_is_the_op(self):
        host = synthetic_clock([0.1] * 12)
        passes = [workloads.PassResult(0.5, 4.5, 3, 0, None),
                  workloads.PassResult(5.5, 9.5, 3, 0, None),
                  workloads.PassResult(9.6, 10.5, 3, 0, None)]
        values, _ = run.end_to_end(passes, [0.1, 0.2, 0.3], host)
        walls = sorted(host.seconds(p.start, p.end) for p in passes)
        self.assertAlmostEqual(values["wall_s"], walls[1])
        self.assertAlmostEqual(values["op_p50_ms"], 1000.0 * walls[1])
        self.assertAlmostEqual(values["op_tail_ms"], 1000.0 * walls[2])
        self.assertAlmostEqual(values["ops_per_s"], 3 / walls[1])
        self.assertAlmostEqual(values["setup_s"], 0.2)


class SpanTimes(unittest.TestCase):
    def test_self_times_add_up_to_span_time(self):
        tracer = Tracer()

        def leaf(x):
            return sum(range(x))

        leaf = tracer.span("exactlin.leaf", leaf)

        def middle(x):
            return leaf(x) + leaf(2 * x)

        middle = tracer.span("homcore.middle", middle)

        def outer(x):
            return middle(x) + leaf(x) + sum(range(x))

        outer = tracer.span("functors.outer", outer)
        for _ in range(5):
            outer(20000)
        agg = tracer.aggregate()
        total_self = sum(row["self_s"] for row in agg.values())
        self.assertAlmostEqual(total_self, agg["functors.outer"]["total_s"], delta=1e-9)
        self.assertEqual(agg["exactlin.leaf"]["calls"], 15)
        # exactlin spans are aggregated only; stored spans link to stored parents
        stored = [tracer.names[i] for i in tracer.name_ids]
        self.assertEqual(stored.count("homcore.middle"), 5)
        self.assertNotIn("exactlin.leaf", stored)
        for i, p in enumerate(tracer.parents):
            if stored[i] == "homcore.middle":
                self.assertEqual(stored[p], "functors.outer")
                self.assertLessEqual(tracer.starts[p], tracer.starts[i])
                self.assertLessEqual(tracer.ends[i], tracer.ends[p])


class _WorkDir(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(workloads.ROOT, ".bench_out"), exist_ok=True)
        self.work_dir = tempfile.mkdtemp(dir=os.path.join(workloads.ROOT, ".bench_out"))

    def tearDown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


class SmallCheckDocs(workloads.CheckDocs):
    docs_per_kind = 6
    cases_per_kind = 8


class WrongVerdict(_WorkDir):
    def test_wrong_expected_verdict_is_a_failed_op(self):
        wl = SmallCheckDocs(5, self.work_dir)
        wl.setup()
        first = wl.run_pass()
        self.assertEqual(first.failed, 0)
        wl.cases[0].expected = 1 - wl.cases[0].expected
        second = wl.run_pass()
        self.assertEqual(second.ops, first.ops)
        self.assertEqual(second.failed, 1)


class SmallSearch(workloads.Search):
    pinned_boxes = 1
    seeded_lie = 4
    rb_algebras = 2
    oop_algebras = 1


class FewerCandidates(_WorkDir):
    def test_op_count_does_not_follow_candidates(self):
        wl = SmallSearch(9, self.work_dir)
        wl.setup()
        tracer = Tracer()
        wl.install_trace(tracer)
        try:
            real = wl.run_pass()
        finally:
            tracer.uninstall()
        self.assertEqual(real.failed, 0)
        visited = tracer.counters["search.postlie_candidates"] + tracer.brute_force_candidates()
        self.assertGreater(visited, 0)

        # A stub engine that visits no candidates but returns the same
        # results: the op count stays, nothing fails, fewer points visited.
        search = wl.hc.search
        answers = {id(call): wl._call(call) for call in wl.calls}
        originals = {name: getattr(search, name) for name in (
            "postlie_search", "brute_force_epsilon_bialgebras",
            "brute_force_rb_search", "brute_force_oop_search")}
        calls = iter(wl.calls)

        def stub(*args, **kwargs):
            return answers[id(next(calls))]

        stub_tracer = Tracer()
        try:
            for name in originals:
                setattr(search, name, stub)
            wl.install_trace(stub_tracer)
            stubbed = wl.run_pass()
        finally:
            stub_tracer.uninstall()
            for name, fn in originals.items():
                setattr(search, name, fn)
        self.assertEqual(stubbed.ops, real.ops)
        self.assertEqual(stubbed.failed, 0)
        self.assertLess(stub_tracer.counters["search.postlie_candidates"]
                        + stub_tracer.brute_force_candidates(), visited)


class SummaryOracle(unittest.TestCase):
    SUMMARY = ("corpus certification: trials=2 max-dim=3 seed=0\n"
               "PROPERTY a: tried=4 passed=3 counterexamples=0 [must-pass]\n"
               "PROPERTY b: tried=5 passed=1 counterexamples=4 [recorded]\n"
               "counterexample documents written: 4\n"
               "RESULT: {}\n")

    def test_must_pass_shortfall_counts_as_failed_ops(self):
        ops, failed, written = workloads.check_summary(self.SUMMARY.format("FAIL"))
        self.assertEqual((ops, written), (9, 4))
        self.assertEqual(failed, 9)
        ops, failed, _ = workloads.check_summary(self.SUMMARY.format("PASS"))
        self.assertEqual(failed, 1)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_runs(self):
        with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_property_names_match_the_harness(self):
        harness = workloads.load_homcert().harness
        self.assertEqual(tuple(p.name for p in harness.PROPERTIES), run.PROPERTY_NAMES)


if __name__ == "__main__":
    unittest.main()
