#!/usr/bin/env python3
"""Self-test of the benchmark's own statistics and bookkeeping.

    python3 perfbench/test_stats.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import stats  # noqa: E402


class Median(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_accepts_any_iterable(self):
        self.assertEqual(stats.median(x * 2.0 for x in (1, 2, 3)), 4.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class Percentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(999)), 99))
        self.assertEqual(stats.percentile(list(range(1000)), 99), 989)
        self.assertEqual(stats.beyond(1000, 99), 10)

    def test_fewer_than_forty_samples_give_no_p75(self):
        self.assertIsNone(stats.percentile(list(range(39)), 75))
        self.assertEqual(stats.percentile(list(range(40)), 75), 29)

    def test_order_of_input_does_not_matter(self):
        values = [float(v) for v in range(200)]
        self.assertEqual(stats.percentile(values[::-1], 90), 179.0)


class PeakRss(unittest.TestCase):
    def reap(self, code):
        child = subprocess.Popen([sys.executable, "-c", code])
        _, status, rusage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.assertEqual(child.returncode, 0)
        return stats.peak_rss_mb(rusage)

    def test_reads_the_childs_peak_not_its_last_size(self):
        # 96 MiB touched page by page, then freed before exit.
        big = self.reap("b = bytearray(96 << 20)\n"
                        "for i in range(0, len(b), 4096): b[i] = 1\n"
                        "del b")
        small = self.reap("pass")
        self.assertGreaterEqual(big, 96.0)
        self.assertLess(small, 64.0)


class Operations(unittest.TestCase):
    def test_progress_lines_are_counted_and_others_passed_on(self):
        counter = stats.OpCounter()
        self.assertTrue(counter.feed("progress 5 3 1\n"))
        self.assertFalse(counter.feed("some other output\n"))
        self.assertFalse(counter.feed("progress 5 3\n"))
        self.assertEqual((counter.attempted, counter.completed, counter.failed), (5, 3, 1))

    def test_abort_counts_unfinished_operations_as_failed(self):
        counter = stats.OpCounter()
        counter.feed("progress 120 117 1")
        self.assertEqual(counter.after_abort(), (120, 4))

    def test_abort_before_the_first_operation_fails_the_run(self):
        self.assertEqual(stats.OpCounter().after_abort(), (1, 1))


class Attempts(unittest.TestCase):
    def reap(self, code):
        child = subprocess.Popen([sys.executable, "-c", code])
        _, status, rusage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        return status, rusage

    def test_death_on_a_signal_is_an_abort_unless_the_deadline_killed_it(self):
        status, rusage = self.reap(  # no core file
            "import os, resource, signal\n"
            "resource.setrlimit(resource.RLIMIT_CORE, (0, 0))\n"
            "os.kill(os.getpid(), signal.SIGABRT)")
        aborted = run.Attempt(status, stats.OpCounter(), rusage, None, 1.0, False)
        self.assertTrue(aborted.aborted)
        self.assertFalse(aborted.ok)
        self.assertIn("SIGABRT", run.describe_failure(aborted))
        killed = run.Attempt(status, stats.OpCounter(), rusage, None, 1.0, True)
        self.assertFalse(killed.aborted)
        self.assertTrue(run.describe_failure(killed).startswith("TIMEOUT"))

    def test_clean_exit_with_a_result_is_ok(self):
        status, rusage = self.reap("pass")
        self.assertTrue(run.Attempt(status, stats.OpCounter(), rusage, {}, 1.0, False).ok)
        self.assertFalse(run.Attempt(status, stats.OpCounter(), rusage, None, 1.0, False).ok)

    def test_a_document_cut_short_is_no_document(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "result.json"
            self.assertIsNone(run.load_document(path))
            path.write_text('{"workload": "adapt_belem", "lat')
            self.assertIsNone(run.load_document(path))
            path.write_text('{"workload": "adapt_belem"}\n')
            self.assertEqual(run.load_document(path), {"workload": "adapt_belem"})


class SelfTime(unittest.TestCase):
    def span(self, id_, parent, start, end, name="x", tag="", count=1.0):
        return {"id": id_, "parent": parent, "name": name, "tag": tag,
                "count": count, "start_us": start, "end_us": end}

    def test_overlapping_and_overhanging_children(self):
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 10, 30),
                 self.span(3, 1, 20, 40), self.span(4, 1, 90, 120)]
        selves = stats.self_times(spans)
        self.assertEqual(selves[1], 100 - 30 - 10)
        self.assertEqual(selves[2], 20)

    def test_span_median_per_count_and_tag(self):
        spans = [self.span(1, 0, 0, 800, "b", "batch8", 8),
                 self.span(2, 0, 0, 1600, "b", "batch8", 8),
                 self.span(3, 0, 0, 50, "b", "batch1", 1)]
        selves = stats.self_times(spans)
        self.assertEqual(stats.span_median(spans, selves, "b", "batch8", True, 1.0), 150.0)
        self.assertIsNone(stats.span_median(spans, selves, "missing"))

    def test_paired_difference_matches_pairs_by_tag(self):
        # Pair a: 50 - 45; pair b: 90 - 30; pair c: 40 - 42; d has no partner.
        spans = [self.span(1, 0, 0, 50, "w", "a"), self.span(2, 0, 0, 45, "s", "a"),
                 self.span(3, 0, 0, 90, "w", "b"), self.span(4, 0, 0, 30, "s", "b"),
                 self.span(5, 0, 0, 40, "w", "c"), self.span(6, 0, 0, 42, "s", "c"),
                 self.span(7, 0, 0, 500, "w", "d")]
        selves = stats.self_times(spans)
        self.assertEqual(stats.paired_difference(spans, selves, "w", "s", 1.0), 5.0)
        self.assertIsNone(stats.paired_difference(spans, selves, "w", "missing"))


class BenchmarkJson(unittest.TestCase):
    def test_metrics_and_workloads_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: unit for name, (unit, _) in run.PER_LAYER.items()})
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
