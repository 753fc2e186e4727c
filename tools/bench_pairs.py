"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --base <rev> --workload beijing-exact --pairs 10 \
        --seeds 11-20 --out BENCH.json [--workload xian-spark ...] [--seconds 20] [--trace-seed 7]

For each workload, pair i runs `perfbench/run.py --seed <seed i>` once in an
export of `<rev>` (`git archive`, in a temporary directory) and once in this
tree, as black boxes, the base first in even pairs and the change first in odd
ones. Every run must report `"correct": true`. The file holds, per workload
and for every end-to-end metric of BENCHMARK.json, each side's median and IQR
(Q3 - Q1, inclusive quartiles), the per-pair ratios change / base, and the
pairs the change wins (better by the metric's direction); with `--trace-seed`,
one traced run per side with every metric it prints. It records both commits,
whether this tree has uncommitted changes, the core count and the JVM.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """`11-20` or `1,4,9` (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def parse_result(stdout):
    """The `info` and result objects of run.py's output (its last two lines)."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        raise ValueError("run.py printed no result")
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError(f"run.py reported a wrong answer: {lines[-1][:200]}")
    return info, result


def quartiles(xs):
    """(Q1, median, Q3), inclusive method; a single value is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(base, change, better):
    """Per-side median and IQR, per-pair ratios and wins of one metric over
    pairs `base[i]`/`change[i]`; `better` is "higher" or "lower"."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs per side")
    out = {}
    for side, xs in (("base", base), ("change", change)):
        q1, med, q3 = quartiles(xs)
        out[side] = {"median": med, "iqr": q3 - q1, "runs": xs}
    out["ratios"] = [c / b if b else None for b, c in zip(base, change)]
    out["wins"] = sum(1 for b, c in zip(base, change) if (c > b if better == "higher" else c < b))
    out["pairs"] = len(base)
    out["median_gain"] = out["change"]["median"] - out["base"]["median"]
    return out


def run(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return parse_result(proc.stdout)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", required=True, help="the revision to compare against")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 11-20 or 11,12,13")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    metrics = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]

    base_tmp = tempfile.mkdtemp(prefix="bench-base-")
    try:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tmp], input=archive, check=True)
        trees = {"base": base_tmp, "change": ROOT}
        report = {"base_sha": git("rev-parse", args.base), "change_sha": git("rev-parse", "HEAD"),
                  "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                  "nproc": os.cpu_count(), "seconds": args.seconds, "workloads": {}}
        for w in args.workload:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    info, result = run(trees[side], w, seed, args.seconds, 0)
                    report["jvm"] = info.get("jvm")
                    runs[side].append(result["metrics"])
                    print(f"{w} pair {i} seed {seed} {side}: "
                          f"{result['metrics'].get('queries_per_s', {}).get('value')} q/s", file=sys.stderr)
            entry = {"seeds": [seeds[i % len(seeds)] for i in range(args.pairs)], "metrics": {}}
            for m in metrics:
                name = m["name"]
                entry["metrics"][name] = summarize([r[name]["value"] for r in runs["base"]],
                                                   [r[name]["value"] for r in runs["change"]], m["better"])
            if args.trace_seed is not None:
                entry["traced"] = {"seed": args.trace_seed}
                for side in ("base", "change"):
                    _, result = run(trees[side], w, args.trace_seed, args.seconds, 1)
                    entry["traced"][side] = {k: v["value"] for k, v in result["metrics"].items()}
            report["workloads"][w] = entry
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    finally:
        shutil.rmtree(base_tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
