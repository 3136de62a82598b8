#!/usr/bin/env python3
"""Benchmark entry point: builds the program, runs one workload, prints the result.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --make-expected [<workload> ...]

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--make-expected` rewrites
the committed answer pools under perfbench/expected (see BASELINE.md).
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

# A run must end within 180 s; leave room for JVM shutdown and reporting.
RUN_LIMIT_S = 170
# Generating the answer pools cross-checks EVE against path enumeration.
MAKE_EXPECTED_LIMIT_S = 3600

JVM_OPENS = [
    f"--add-opens={p}=ALL-UNNAMED" for p in (
        "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
        "java.base/java.io", "java.base/java.net", "java.base/java.nio",
        "java.base/java.util", "java.base/java.util.concurrent",
        "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
        "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
        "java.base/sun.util.calendar")
]


# Workloads whose JVM compiles synchronously (-Xbatch), so that the EVE
# warm-up yields the same compiled code in every run. With background
# compilation, which form EVE's `Array.fill` calls were compiled into was a
# race settled once per JVM, and sparse-gg-k4's p50 came out at 0.6, 1.1 or
# 1.7 ms from run to run. The other workloads do not show that race, and
# -Xbatch made them slower and less steady.
SYNC_JIT_WORKLOADS = ("sparse-gg-k4",)


def java_cmd(classpath, main, args, jvm_flags=()):
    tmp = build.BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return ["java", "-Xms3g", "-Xmx3g", "-XX:+UseG1GC", *jvm_flags, *JVM_OPENS,
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j.configurationFile={build.ROOT / 'perfbench' / 'log4j2.properties'}",
            "-cp", classpath, main, *args]


def run_child(cmd, limit_s):
    """Run the JVM in its own process group, relay its output, kill it on overrun."""
    # Spark's scratch space stays inside the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(build.BUILD / "spark-local"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write(f"run.py: benchmark exceeded {limit_s} s and was stopped\n")
        return 1
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--make-expected", nargs="*", metavar="WORKLOAD")
    a = ap.parse_args()
    if a.make_expected is None and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    try:
        classpath = build.build()
    except build.BuildError as e:
        sys.exit(f"build: {e}")
    sys.stdout.flush()
    if a.make_expected is not None:
        cmd = java_cmd(classpath, "perfbench.MakeExpected", [str(build.ROOT), *a.make_expected])
        sys.exit(run_child(cmd, MAKE_EXPECTED_LIMIT_S))
    cmd = java_cmd(classpath, "perfbench.Main", [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--root", str(build.ROOT)],
        jvm_flags=["-Xbatch"] if a.workload in SYNC_JIT_WORKLOADS else [])
    # The first run of a checkout also builds; only the run itself is capped.
    sys.exit(run_child(cmd, RUN_LIMIT_S))


if __name__ == "__main__":
    main()
