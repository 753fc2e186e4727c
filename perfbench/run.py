"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: porto-heuristic, beijing-exact, xian-spark, road-net (see
perfbench/README.md). Builds the program first when its sources changed.
Exits non-zero without a result when the program's sources are missing or
do not build, and with `"correct": false` when an answer is wrong.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

HEAP = "1536m"
TIMEOUT_S = 175

# Spark on Java 17 needs these module opens (spark-submit adds them itself).
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio",
         "java.base/java.util", "java.base/java.util.concurrent",
         "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
         "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
         "java.base/sun.util.calendar"]


def git_sha():
    """The commit of the checkout, or "none" outside a git work tree."""
    if not os.path.exists(os.path.join(build.ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if not re.fullmatch(r"[a-z0-9-]+", args.workload):
        sys.exit(f"perfbench: bad workload name {args.workload!r}")

    try:
        classpath, digest = build.build()
    except build.BuildError as e:
        sys.exit(f"perfbench: {e}")

    tmp = os.path.join(build.OUT, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    spans = os.path.join(build.OUT, "spans", f"{args.workload}-seed{args.seed}.jsonl")
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + [f"-Djava.io.tmpdir={tmp}",
              f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
              "-Dspark.driver.host=127.0.0.1",
              "-Dlog4j2.configurationFile=" + os.path.join(build.ROOT, "perfbench", "log4j2.properties"),
              f"-Dperfbench.gitSha={git_sha()}", f"-Dperfbench.sourceSha={digest[:16]}",
              "-cp", classpath, "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace]
           + (["--spans", spans] if args.trace == "1" else []))
    proc = subprocess.Popen(cmd, cwd=build.ROOT)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 124
        print(f"perfbench: run exceeded {TIMEOUT_S}s", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
