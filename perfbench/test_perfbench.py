"""Self-tests of the benchmark's own logic (no program under test needed).

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import unittest

import harness
import workload_serve_open
import workload_stream_socket

HERE = os.path.dirname(os.path.abspath(__file__))


class TailPercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        cases = {10: None, 19: None, 20: 50.0, 40: 75.0, 99: 75.0,
                 100: 90.0, 199: 90.0, 200: 95.0, 399: 95.0, 400: 97.5,
                 1000: 99.0, 9999: 99.0, 10000: 99.9}
        for count, expected in cases.items():
            self.assertEqual(harness.tail_percentile(count), expected, count)

    def test_summary_uses_the_rule(self):
        samples = [i / 1000.0 for i in range(1, 201)]  # 1..200 ms
        summary = harness.latency_summary(samples)
        self.assertEqual(summary["tail_pct"], 95.0)
        self.assertAlmostEqual(summary["tail_ms"], 190.05)
        self.assertAlmostEqual(summary["p50_ms"], 100.5)
        self.assertEqual(summary["n"], 200)

    def test_small_sample_reports_the_maximum(self):
        summary = harness.latency_summary([0.001, 0.004, 0.002])
        self.assertEqual(summary["tail_pct"], "max")
        self.assertAlmostEqual(summary["tail_ms"], 4.0)


class QuietBlocks(unittest.TestCase):
    def test_keeps_the_cheapest_blocks_in_run_order(self):
        # Blocks of 2: [5, 5], [1, 1], [9, 9], [2, 2], [1, 2]
        costs = [5, 5, 1, 1, 9, 9, 2, 2, 1, 2]
        self.assertEqual(harness.quiet_blocks(costs, 2, 0.4),
                         [2, 3, 8, 9])

    def test_keeps_at_least_one_block(self):
        self.assertEqual(harness.quiet_blocks([3, 1, 2, 4], 2, 0.01),
                         [0, 1])

    def test_drops_a_short_last_block(self):
        # The lone last op would rank cheapest if it were a block.
        self.assertEqual(harness.quiet_blocks([4, 4, 3, 3, 1], 2, 0.5),
                         [2, 3])
        self.assertEqual(harness.quiet_blocks([4], 2, 0.5), [0])

    def test_ties_break_by_position(self):
        self.assertEqual(harness.quiet_blocks([1, 1, 1, 1], 1, 0.5),
                         [0, 1])


class FastestRepeats(unittest.TestCase):
    def test_each_position_from_its_cheapest_repeat(self):
        repeats = [[1, 5, 9],
                   [2, 1, 9],
                   [3, 3, 1]]
        self.assertEqual(harness.fastest_repeats(repeats),
                         [(0, 0), (1, 1), (2, 2)])

    def test_positions_beyond_the_shortest_repeat_are_dropped(self):
        self.assertEqual(harness.fastest_repeats([[3, 3, 3], [1, 1]]),
                         [(1, 0), (1, 1)])

    def test_a_cost_every_repeat_carries_is_kept(self):
        # An expensive operation at position 2 stays in the composite.
        chosen = harness.fastest_repeats([[1, 1, 50, 1], [2, 2, 60, 2]])
        self.assertEqual(chosen, [(0, 0), (0, 1), (0, 2), (0, 3)])

    def test_ties_break_by_repeat(self):
        self.assertEqual(harness.fastest_repeats([[1], [1]]), [(0, 0)])


class MaxQpsUnderSlo(unittest.TestCase):
    def test_flat_backlog_is_not_growing(self):
        backlog = [3, 1, 4, 1, 5, 2, 6, 2, 3, 5] * 30
        self.assertFalse(harness.backlog_growing(backlog))

    def test_accumulating_backlog_is_growing(self):
        backlog = [i // 3 for i in range(300)]  # +1 every third arrival
        self.assertTrue(harness.backlog_growing(backlog))

    def test_short_rung_never_counts_as_growing(self):
        self.assertFalse(harness.backlog_growing([0, 5, 10, 20]))

    def test_highest_qualifying_rung(self):
        rungs = [
            {"rate": 50, "tail_ms": 20, "growing": False, "failed": 0},
            {"rate": 100, "tail_ms": 40, "growing": False, "failed": 0},
            {"rate": 200, "tail_ms": 90, "growing": True, "failed": 0},
            {"rate": 300, "tail_ms": 500, "growing": False, "failed": 0},
        ]
        self.assertEqual(harness.max_qps_under_slo(rungs, 100.0), 100.0)

    def test_failed_requests_disqualify_a_rung(self):
        rungs = [{"rate": 50, "tail_ms": 20, "growing": False, "failed": 0},
                 {"rate": 100, "tail_ms": 30, "growing": False, "failed": 1}]
        self.assertEqual(harness.max_qps_under_slo(rungs, 100.0), 50.0)

    def test_no_rung_qualifies(self):
        rungs = [{"rate": 50, "tail_ms": 200, "growing": False, "failed": 0}]
        self.assertEqual(harness.max_qps_under_slo(rungs, 100.0), 0.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SpanSelfTime(unittest.TestCase):
    def trace(self):
        """root [0, 10] > a [1, 4] > c [2, 3]; root > b [5, 9]."""
        clock = FakeClock()
        tracer = harness.Tracer(clock=clock)
        spans = {}

        def at(t):
            clock.now = t

        at(0.0)
        root = tracer.enter("root")
        at(1.0)
        a = tracer.enter("a")
        at(2.0)
        c = tracer.enter("c")
        at(3.0)
        spans["c"] = tracer.exit(c)
        at(4.0)
        spans["a"] = tracer.exit(a)
        at(5.0)
        b = tracer.enter("b")
        at(9.0)
        spans["b"] = tracer.exit(b)
        at(10.0)
        spans["root"] = tracer.exit(root)
        return tracer, spans

    def test_self_time_is_duration_minus_children(self):
        _tracer, spans = self.trace()
        self.assertEqual(spans["c"].self_s, 1.0)
        self.assertEqual(spans["a"].self_s, 2.0)
        self.assertEqual(spans["b"].self_s, 4.0)
        self.assertEqual(spans["root"].self_s, 3.0)

    def test_self_times_add_up_to_the_root(self):
        tracer, spans = self.trace()
        index = harness.SpanIndex(tracer.spans())
        self.assertEqual(index.tree_balance(spans["root"]), (10.0, 10.0))

    def test_context_selection(self):
        tracer, _spans = self.trace()
        index = harness.SpanIndex(tracer.spans())
        self.assertEqual(index.self_s("c", within="a"), 1.0)
        self.assertEqual(index.self_s("c", outside=("a",)), 0.0)
        self.assertEqual(index.self_s(("a", "b")), 6.0)
        self.assertEqual(index.total_s("a"), 3.0)

    def test_out_of_order_exit_is_an_error(self):
        tracer = harness.Tracer(clock=FakeClock())
        outer = tracer.enter("outer")
        tracer.enter("inner")
        with self.assertRaises(RuntimeError):
            tracer.exit(outer)

    def test_wrap_records_and_unwrap_restores(self):
        class Base:
            def work(self, x):
                return x + 1

        class Child(Base):
            def own(self):
                return "own"

        tracer = harness.Tracer()
        own = Child.own
        tracer.wrap(Child, "work", "work")  # inherited attribute
        tracer.wrap(Child, "own", "own")
        self.assertEqual(Child().work(1), 2)
        self.assertEqual(Child().own(), "own")
        self.assertEqual([s.name for s in tracer.spans()], ["work", "own"])
        tracer.unwrap_all()
        self.assertNotIn("work", vars(Child))
        self.assertIs(Child.own, own)


class ScheduleDeterminism(unittest.TestCase):
    def test_serve_schedule_depends_only_on_seed_and_seconds(self):
        first = workload_serve_open.schedule(7, 15.0)
        self.assertEqual(first, workload_serve_open.schedule(7, 15.0))
        self.assertNotEqual(first, workload_serve_open.schedule(8, 15.0))

    def test_serve_schedule_rungs(self):
        plan = workload_serve_open.schedule(3, 10.0)
        offsets = [due for _rung, due, _sample in plan]
        self.assertEqual(offsets, sorted(offsets))
        for index, (_name, rate, share, _process) in enumerate(
                workload_serve_open.RUNGS):
            count = sum(1 for rung, _d, _s in plan if rung == index)
            self.assertEqual(count, int(round(rate * share * 10.0)))

    def test_socket_cell_plan_depends_only_on_seed(self):
        plan = workload_stream_socket._plan(5, 30, (6, 10))
        self.assertEqual(plan, workload_stream_socket._plan(5, 30, (6, 10)))
        self.assertNotEqual(plan,
                            workload_stream_socket._plan(6, 30, (6, 10)))
        for reads in plan:
            self.assertEqual(len(reads), workload_stream_socket.READS)
            for cells in reads:
                self.assertEqual(len(set(cells)),
                                 workload_stream_socket.CELLS_PER_READ)


class BenchmarkManifest(unittest.TestCase):
    def test_manifest_lists_what_the_command_prints(self):
        import run

        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
            manifest = json.load(handle)
        self.assertEqual([w["name"] for w in manifest["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"])
                          for m in manifest["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"])
                          for m in manifest["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
