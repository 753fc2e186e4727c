"""Builds the benchmark: compiles the program's sources (src/main/scala) and
the benchmark's own (perfbench/src) with the Scala compiler that ships in
Spark's jars directory, into .bench_build/perfbench/classes.

A build is reused while the sources and jars it was made from are unchanged.

    python3 perfbench/build.py        # prints the runtime classpath
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"),
               os.path.join(ROOT, "perfbench", "src")]


class BuildError(Exception):
    pass


def spark_jars():
    """The jars directory of the Spark distribution: $SPARK_HOME, else the
    one holding spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return sorted(os.path.join(jars, j) for j in os.listdir(jars) if j.endswith(".jar"))


def sources():
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildError(f"missing source directory {os.path.relpath(d, ROOT)}")
    found = sorted(os.path.join(dp, f) for d in SOURCE_DIRS
                   for dp, _, fs in os.walk(d) for f in fs if f.endswith(".scala"))
    if not found:
        raise BuildError("no Scala sources found")
    return found


def stamp(srcs, jars):
    h = hashlib.sha256()
    for path in srcs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    for j in jars:
        h.update(os.path.basename(j).encode())
    return h.hexdigest()


def build():
    """Compiles if needed; returns (classpath, source digest)."""
    jars = spark_jars()
    srcs = sources()
    digest = stamp(srcs, jars)
    classes = os.path.join(OUT, "classes")
    stamp_file = os.path.join(OUT, "classes.stamp")
    cp = os.pathsep.join([classes] + jars)
    if os.path.exists(stamp_file) and open(stamp_file).read() == digest:
        return cp, digest
    os.makedirs(OUT, exist_ok=True)
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    compiler = [j for j in jars if os.path.basename(j).startswith(("scala-compiler-", "scala-library-", "scala-reflect-"))]
    argfile = os.path.join(OUT, "scalac.args")
    with open(argfile, "w") as f:
        f.write("\n".join(["-d", tmp, "-nowarn", "-classpath", os.pathsep.join(jars)] + srcs) + "\n")
    cmd = ["java", "-Xss16m", "-Xmx2g", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "@" + argfile]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BuildError("compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp_file, "w") as f:
        f.write(digest)
    return cp, digest


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        sys.exit(f"build: {e}")
