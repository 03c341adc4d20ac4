"""Unit tests for the pure functions of benchmark/run.py: quartiles, the
bound check with absolute slack, the two-set agreement check, the
determinism and thread-count checks, span self time, the per-layer metrics
derived from spans, and the golden comparison.

Run with: python3 benchmark/test_run.py
"""
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from run import (  # noqa: E402
    check_runs, compare_sets, golden_drift, golden_of, layer_metrics,
    layer_self_times, quartiles, self_times, thread_mismatch, thread_speedups,
    within_bound)


def make_run(digest="abc", completed=10, p50=1.0, p99=9.0, flows=10,
             submitted_bytes=1000, completed_bytes=1000, run_s=2.0):
    return {
        "workload": "w", "digest": digest, "engine": "packet", "threads": 1,
        "run_s": run_s, "gen_s": 0.01,
        "summary": {"flows": flows, "completed": completed,
                    "submitted_bytes": submitted_bytes,
                    "completed_bytes": completed_bytes,
                    "fct_p50_us": p50, "fct_p99_us": p99, "goodput_gbps": 5.0},
        "counters": {"sim.events": 1000, "net.trims": 3},
    }


def span(id_, name, start, end, parent=-1):
    return {"id": id_, "name": name, "start_s": start, "end_s": end, "parent": parent}


class QuartilesTest(unittest.TestCase):
    def test_single_value_is_every_quartile(self):
        self.assertEqual(quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_matches_statistics_quantiles(self):
        self.assertEqual(quartiles([1, 2, 3, 4, 5]), (1.5, 3, 4.5))

    def test_order_does_not_matter(self):
        self.assertEqual(quartiles([5, 1, 4, 2, 3]), quartiles([1, 2, 3, 4, 5]))


class WithinBoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertTrue(within_bound(10.0, 10.9, 0.1, "lower"))
        self.assertFalse(within_bound(10.0, 11.1, 0.1, "lower"))

    def test_higher_is_better(self):
        self.assertTrue(within_bound(100.0, 96.0, 0.05, "higher"))
        self.assertFalse(within_bound(100.0, 94.0, 0.05, "higher"))

    def test_improvement_always_passes(self):
        self.assertTrue(within_bound(10.0, 1.0, 0.0, "lower"))
        self.assertTrue(within_bound(10.0, 100.0, 0.0, "higher"))

    def test_absolute_slack_covers_tiny_medians(self):
        # 40% worse, but only 0.04 s: inside a 0.05 s slack.
        self.assertTrue(within_bound(0.1, 0.14, 0.1, "lower", slack=0.05))
        self.assertFalse(within_bound(0.1, 0.16, 0.1, "lower", slack=0.05))

    def test_zero_bound_fails_any_worsening(self):
        self.assertTrue(within_bound(0.0, 0.0, 0.0, "lower"))
        self.assertFalse(within_bound(0.0, 1.0, 0.0, "lower"))


class CompareSetsTest(unittest.TestCase):
    METRICS = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
               {"name": "goodput_gbps", "unit": "Gb/s", "better": "higher", "bound": 0.05}]

    def test_rows_carry_signed_drift_and_verdict(self):
        first = {"a": {"run_s": 2.0, "goodput_gbps": 100.0}}
        second = {"a": {"run_s": 2.3, "goodput_gbps": 104.0}}
        rows = {r["metric"]: r for r in compare_sets(first, second, self.METRICS)}
        self.assertAlmostEqual(rows["run_s"]["drift"], 0.15)
        self.assertFalse(rows["run_s"]["ok"])
        # Higher goodput is better, so the drift is negative and passes.
        self.assertAlmostEqual(rows["goodput_gbps"]["drift"], -0.04)
        self.assertTrue(rows["goodput_gbps"]["ok"])

    def test_absolute_slack_applies_to_run_s(self):
        rows = compare_sets({"a": {"run_s": 0.1}}, {"a": {"run_s": 0.14}}, self.METRICS)
        self.assertTrue(rows[0]["ok"])

    def test_only_shared_workloads_and_metrics(self):
        rows = compare_sets({"a": {"run_s": 1.0}, "b": {"run_s": 1.0}},
                            {"a": {"run_s": 1.0}}, self.METRICS)
        self.assertEqual([(r["workload"], r["metric"]) for r in rows], [("a", "run_s")])


class CheckRunsTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        self.assertEqual(check_runs([make_run(), make_run(run_s=3.0)]), [])

    def test_digest_mismatch_names_the_run(self):
        errors = check_runs([make_run(), make_run(), make_run(digest="xyz")])
        self.assertEqual(len(errors), 1)
        self.assertIn("run 2", errors[0])
        self.assertIn("xyz", errors[0])

    def test_summary_mismatch(self):
        errors = check_runs([make_run(), make_run(p99=9.5)])
        self.assertEqual(len(errors), 1)
        self.assertIn("summary", errors[0])

    def test_more_bytes_completed_than_submitted(self):
        errors = check_runs([make_run(completed_bytes=1001)])
        self.assertEqual(len(errors), 1)
        self.assertIn("1001", errors[0])

    def test_more_flows_completed_than_submitted(self):
        self.assertEqual(len(check_runs([make_run(completed=11)])), 1)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(0, "core.run", 0.0, 10.0),
                 span(1, "core.in_slice", 1.0, 4.0, parent=0),
                 span(2, "core.boundary", 4.0, 5.0, parent=0)]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 6.0)
        self.assertAlmostEqual(own[1], 3.0)
        self.assertAlmostEqual(own[2], 1.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span(0, "a.x", 0.0, 10.0),
                 span(1, "b.y", 2.0, 6.0, parent=0),
                 span(2, "b.z", 5.0, 12.0, parent=0)]  # overlaps y, ends past a.x
        self.assertAlmostEqual(self_times(spans)[0], 2.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, "core.run", 0.0, 10.0),
                 span(1, "core.in_slice", 0.0, 8.0, parent=0),
                 span(2, "bench.probe", 1.0, 2.0, parent=1)]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 2.0)
        self.assertAlmostEqual(own[1], 7.0)

    def test_layer_totals_group_by_name_prefix(self):
        spans = [span(0, "core.run", 0.0, 10.0),
                 span(1, "core.in_slice", 0.0, 4.0, parent=0),
                 span(2, "bench.probe", 4.0, 5.0, parent=0),
                 span(3, "topo.construct", 10.0, 13.0)]
        layers = layer_self_times(spans)
        self.assertAlmostEqual(layers["core"], 9.0)
        self.assertAlmostEqual(layers["bench"], 1.0)
        self.assertAlmostEqual(layers["topo"], 3.0)


class LayerMetricsTest(unittest.TestCase):
    def test_stepped_run(self):
        spans = [span(0, "core.submit", 0.0, 0.5),
                 span(1, "core.run", 0.5, 10.0),
                 span(2, "core.in_slice", 0.5, 3.5, parent=1),
                 span(3, "core.boundary", 3.5, 4.5, parent=1),
                 span(4, "core.in_slice", 4.5, 6.5, parent=1),
                 span(5, "core.boundary", 6.5, 6.7, parent=1),
                 span(6, "topo.slice_routes", 11.0, 11.002),
                 span(7, "topo.slice_routes", 11.002, 11.006)]
        m = layer_metrics(make_run(run_s=2.2), spans, untraced_run_s=2.0,
                          speedups={2: 0.8, 4: 1.3})
        self.assertEqual(m["core.slices"], 2)
        self.assertAlmostEqual(m["core.in_slice_s"], 5.0)
        self.assertAlmostEqual(m["core.boundary_s"], 1.2)
        self.assertAlmostEqual(m["core.slice_max_ms"], 4000.0)
        self.assertAlmostEqual(m["sim.ns_per_event"], 5.0 / 1000 * 1e9)
        self.assertAlmostEqual(m["topo.slice_table_ms"], 3.0)
        self.assertAlmostEqual(m["exp.trace_overhead_pct"], 10.0)
        self.assertEqual((m["sim.speedup_t2"], m["sim.speedup_t4"]), (0.8, 1.3))
        self.assertEqual(m["net.trims"], 3)
        self.assertEqual(m["fluid.ns_per_flow"], 0.0)

    def test_unstepped_run_excludes_probe_bursts(self):
        spans = [span(0, "core.run", 0.0, 4.0),
                 span(1, "bench.probe", 1.0, 2.0, parent=0)]
        run = make_run()
        run["engine"] = "fluid"
        m = layer_metrics(run, spans, untraced_run_s=2.0, speedups={})
        self.assertEqual(m["core.slices"], 0)
        self.assertAlmostEqual(m["sim.ns_per_event"], 3.0 / 1000 * 1e9)
        self.assertAlmostEqual(m["fluid.ns_per_flow"], 3.0 / 10 * 1e9)
        self.assertEqual(m["sim.speedup_t4"], 0.0)


class ThreadMismatchTest(unittest.TestCase):
    def test_equal_digests_pass(self):
        self.assertEqual(thread_mismatch(make_run(), make_run()), [])

    def test_differing_digest_names_both(self):
        t4 = make_run(digest="aaa")
        t4["threads"] = 4
        errors = thread_mismatch(t4, make_run(digest="bbb"))
        self.assertEqual(len(errors), 1)
        self.assertIn("threads=4", errors[0])
        self.assertIn("aaa", errors[0])
        self.assertIn("bbb", errors[0])


class ThreadSpeedupsTest(unittest.TestCase):
    def test_ratios_of_median_wall_times(self):
        def walls(*values):
            # run_s (normalised) must not be used across thread counts.
            return [{"run_wall_s": v, "run_s": 99.0} for v in values]
        speedups = thread_speedups(walls(4.0, 3.0, 5.0), walls(5.0)[0], walls(2.0, 2.5, 3.0))
        self.assertAlmostEqual(speedups[2], 0.8)
        self.assertAlmostEqual(speedups[4], 1.6)


class GoldenTest(unittest.TestCase):
    def test_matching_golden_has_no_drift(self):
        run = make_run()
        self.assertEqual(golden_drift({"w": golden_of(run)}, "w", run), [])

    def test_drift_lists_each_changed_field(self):
        golden = golden_of(make_run())
        drift = golden_drift({"w": golden}, "w", make_run(digest="new", p99=9.9))
        self.assertEqual(len(drift), 2)
        self.assertTrue(any("digest" in d for d in drift))
        self.assertTrue(any("fct_p99_us" in d for d in drift))

    def test_missing_golden_is_reported(self):
        self.assertEqual(len(golden_drift({}, "w", make_run())), 1)


if __name__ == "__main__":
    unittest.main()
