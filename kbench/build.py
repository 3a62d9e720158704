#!/usr/bin/env python3
"""Build file of the k-clique benchmark.

Compiles the program's sources (src/main/scala) together with the harness
(kbench/src/main/scala) with the Scala compiler shipped in Spark's jars, into
.bench_build/kbench/classes under the checkout root. A stamp of every input
keeps the build incremental: an unchanged tree is not recompiled.

    python3 kbench/build.py          # build if stale, print the class dir
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "kbench")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "stamp")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src", "main", "scala")]


class BuildError(Exception):
    pass


def spark_jars():
    homes = [os.environ.get("SPARK_HOME", "")]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        if os.path.isfile(submit):
            homes.append(os.path.dirname(os.path.dirname(os.path.realpath(submit))))
    jars_dir = next((os.path.join(h, "jars") for h in homes if h and os.path.isdir(os.path.join(h, "jars"))), None)
    if jars_dir is None:
        raise BuildError("no Spark jars found; set SPARK_HOME or put spark-submit on PATH")
    return sorted(os.path.join(jars_dir, f) for f in os.listdir(jars_dir) if f.endswith(".jar"))


def sources():
    found = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildError(f"missing source directory {os.path.relpath(d, ROOT)}")
        for dirpath, _, files in os.walk(d):
            found += [os.path.join(dirpath, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def stamp_of(srcs, jars):
    h = hashlib.sha256()
    for path in srcs + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    for j in jars:
        h.update(os.path.basename(j).encode())
    return h.hexdigest()


def build():
    """Returns the classpath (class dir + Spark jars), compiling if stale."""
    jars = spark_jars()
    srcs = sources()
    stamp = stamp_of(srcs, jars)
    if os.path.isfile(STAMP) and open(STAMP).read() == stamp and os.path.isdir(CLASSES):
        return [CLASSES] + jars
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(jars), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + srcs
    print(f"[kbench] compiling {len(srcs)} sources", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac exited with {proc.returncode}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)
    with open(STAMP, "w") as f:
        f.write(stamp)
    return [CLASSES] + jars


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"[kbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
