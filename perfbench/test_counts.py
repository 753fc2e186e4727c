"""The benchmark's own test: exact counts repeat bit for bit across two
same-seed traced runs, and another seed changes the inputs.

    python3 perfbench/test_counts.py                    # every workload
    python3 perfbench/test_counts.py road-net xian-spark

Each traced run lasts about as long as two 100-query phases plus set-up.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["porto-heuristic", "beijing-exact", "xian-spark", "road-net"]

# Counts of work done, reported over the first 100 traced queries.
COUNTS = ["core.cma_calls", "core.cma_cells",
          "pruning.gbp_pass_ratio", "pruning.kpf_prune_ratio", "pruning.searched_ratio",
          "spark.jobs_per_query", "spark.tasks_per_query", "network.cost_evals"]


def traced_run(workload, seed):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "1"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


class CountsRepeat(unittest.TestCase):
    workloads = WORKLOADS

    def test_counts_repeat_and_seed_changes_inputs(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                info1, res1 = traced_run(w, 7)
                info2, res2 = traced_run(w, 7)
                info3, _ = traced_run(w, 8)
                self.assertTrue(res1["correct"] and res2["correct"])
                counts1 = {m: res1["metrics"][m]["value"] for m in COUNTS}
                counts2 = {m: res2["metrics"][m]["value"] for m in COUNTS}
                self.assertEqual(counts1, counts2)
                self.assertGreater(counts1["core.cma_calls"], 0)
                self.assertEqual(info1["inputs_digest"], info2["inputs_digest"])
                self.assertNotEqual(info1["inputs_digest"], info3["inputs_digest"])


if __name__ == "__main__":
    if len(sys.argv) > 1:
        CountsRepeat.workloads = sys.argv[1:]
    unittest.main(argv=sys.argv[:1])
