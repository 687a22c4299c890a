#!/usr/bin/env python3
"""Run one benchmark workload of the Dask-means reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test        # the benchmark's own tests

Run from the repository root. The first run builds the benchmark (an sbt
build in perfbench/ that compiles the program's sources with the benchmark) and
records its runtime classpath under .bench_build/; later runs launch plain
`java` until a source file changes. The last line of standard output is the
result as one JSON object.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSPATH = os.path.join(BENCH, "target", "classpath.txt")
STAMP = os.path.join(WORK, "build.stamp")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# The Parallel collector: with G1, rep times of the serial fits were ~25%
# slower and about twice as variable from run to run.
JVM_OPTS = ["-XX:+UseParallelGC", "-Xms1g", "-Xmx3g", "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of every file the build reads, so an edit triggers a rebuild."""
    h = hashlib.sha256()
    for top in (PROGRAM_SOURCES, os.path.join(BENCH, "src", "main"), os.path.join(BENCH, "project")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "project"))
            for name in sorted(filenames):
                if name.endswith((".scala", ".sbt", ".properties")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    with open(os.path.join(BENCH, "build.sbt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def sbt_env():
    """sbt must resolve from the local caches only: never from the network."""
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline=true" not in opts:
        opts += " -Dsbt.offline=true"
    repos = os.path.expanduser("~/.sbt/repositories")
    if "sbt.repository.config" not in opts and os.path.isfile(repos):
        opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    env["SBT_OPTS"] = opts.strip()
    return env


def sbt(*commands, timeout):
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", *commands]
    try:
        proc = subprocess.run(cmd, cwd=BENCH, env=sbt_env(), stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"sbt {' '.join(commands)} timed out")
    except FileNotFoundError:
        fail("sbt not found on PATH")
    if proc.returncode != 0:
        fail(f"sbt {' '.join(commands)} failed with code {proc.returncode}")


def classpath():
    """Build when the sources changed since the last build; return the classpath."""
    digest = source_digest()
    stamp = open(STAMP).read().strip() if os.path.isfile(STAMP) else None
    if stamp != digest or not os.path.isfile(CLASSPATH):
        sbt("writeClasspath", timeout=BUILD_TIMEOUT_S)
        os.makedirs(WORK, exist_ok=True)
        with open(STAMP, "w") as f:
            f.write(digest + "\n")
    with open(CLASSPATH) as f:
        return f.read().strip()


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--test", action="store_true", help="run the benchmark's own tests")
    a = p.parse_args()

    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SOURCES)}; run from a full checkout")
    if a.test:
        sbt("test", timeout=BUILD_TIMEOUT_S)
        return
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")

    cp = classpath()
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--work-dir", WORK]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {a.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
