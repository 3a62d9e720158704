#!/usr/bin/env python3
"""The k-clique benchmark command (see kbench/README.md).

    python3 kbench/run.py --workload wk8 --seed 1 --seconds 15 --trace 0
    python3 kbench/run.py --self-test

Run from the root of a checkout. Builds the program and the harness from
source when they changed (kbench/build.py), then runs one workload in a JVM.
All files it writes go under .bench_build/kbench in the checkout. The last
line of standard output is the JSON result.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import build  # noqa: E402

# A run must end within 180 s; the JVM gets what the build left of that.
RUN_LIMIT_S = 170
# Spark 4 on Java 17 needs these opened, as spark-submit adds them.
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="run the harness tests and exit")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")

    try:
        classpath = build.build()
    except build.BuildError as e:
        print(f"[kbench] build failed: {e}", file=sys.stderr)
        return 2

    work = os.path.join(build.OUT, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-XX:-UsePerfData", "-Xms3g", "-Xmx3g", "-XX:+IgnoreUnrecognizedVMOptions", *JAVA_OPENS,
           "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true",
           f"-Djava.io.tmpdir={tmp}", f"-Dkbench.work={work}",
           "-cp", os.pathsep.join(classpath)]
    if a.self_test:
        cmd += ["kbench.SelfTest"]
    else:
        cmd += ["kbench.Main", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)]

    proc = subprocess.Popen(cmd, cwd=build.ROOT, start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(3)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"[kbench] run exceeded {RUN_LIMIT_S} s; killed", file=sys.stderr)
        stop()


if __name__ == "__main__":
    sys.exit(main())
