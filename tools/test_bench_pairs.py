"""Checks bench_pairs.py's arithmetic on canned run.py output.

    python3 tools/test_bench_pairs.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402

INFO = '{"info": {"workload": "beijing-exact", "seed": 11, "trace": 0, "jvm": "OpenJDK 17", "recall": 1.0}}'


def output(qps, p50, correct="true"):
    return ("perfbench: building\n" + INFO + "\n"
            + '{"correct": %s, "attempted": 10, "failed": 0, "metrics": '
              '{"queries_per_s": {"value": %s, "unit": "1/s"}, "query_p50_ms": {"value": %s, "unit": "ms"}}}\n'
            % (correct, qps, p50))


class BenchPairsTest(unittest.TestCase):

    def test_parse_result_reads_the_last_two_lines(self):
        info, result = bench_pairs.parse_result(output(70.5, 12.0))
        self.assertEqual(info["jvm"], "OpenJDK 17")
        self.assertEqual(result["metrics"]["queries_per_s"]["value"], 70.5)

    def test_parse_result_rejects_a_wrong_answer_and_no_result(self):
        with self.assertRaises(ValueError):
            bench_pairs.parse_result(output(70.5, 12.0, correct="false"))
        with self.assertRaises(ValueError):
            bench_pairs.parse_result("perfbench: compilation failed\n")

    def test_median_iqr_ratios_and_wins(self):
        runs = [bench_pairs.parse_result(output(q, p))[1]["metrics"]
                for q, p in [(60, 14), (80, 11), (70, 12), (90, 10), (50, 15)]]
        base = [r["queries_per_s"]["value"] for r in runs]          # 60 80 70 90 50
        change = [b * f for b, f in zip(base, [1.5, 1.25, 1.0, 0.9, 1.2])]  # 90 100 70 81 60
        s = bench_pairs.summarize(base, change, "higher")
        self.assertEqual(s["base"]["median"], 70)
        self.assertEqual(s["base"]["iqr"], 80 - 60)              # inclusive quartiles of 50..90
        self.assertEqual(s["change"]["median"], 81)
        self.assertEqual(s["change"]["iqr"], 90 - 70)
        self.assertEqual(s["ratios"], [1.5, 1.25, 1.0, 0.9, 1.2])
        self.assertEqual(s["wins"], 3)                           # a tie is not a win
        self.assertEqual(s["median_gain"], 11)
        lower = bench_pairs.summarize([14, 11, 12], [13, 11, 13], "lower")
        self.assertEqual(lower["wins"], 1)
        self.assertEqual(lower["base"]["iqr"], 13 - 11.5)

    def test_one_pair_and_mismatched_sides(self):
        s = bench_pairs.summarize([2.0], [3.0], "lower")
        self.assertEqual((s["base"]["median"], s["base"]["iqr"], s["wins"]), (2.0, 0.0, 0))
        with self.assertRaises(ValueError):
            bench_pairs.summarize([1.0, 2.0], [1.0], "higher")

    def test_parse_seeds(self):
        self.assertEqual(bench_pairs.parse_seeds("11-14"), [11, 12, 13, 14])
        self.assertEqual(bench_pairs.parse_seeds("3,7-8"), [3, 7, 8])


if __name__ == "__main__":
    unittest.main()
