"""Build file of the DeepJoin benchmark.

Compiles the repository's main sources (`src/main/scala`) together with the
benchmark's own sources (`djbench/src`) into `djbench/.build/classes`, with
the Scala compiler that ships in the Spark distribution. No sbt, no network
and no files outside the checkout are involved. The build is skipped when a
digest of every input (sources, compiler jars, JVM version) is unchanged.

Usage: python3 djbench/build.py        (run.py calls `ensure_built` itself)
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
CLASSES = os.path.join(BUILD, "classes")
STAMP = os.path.join(BUILD, "classes.stamp")
REPO_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(HERE, "src")


class BuildError(Exception):
    pass


def spark_jars():
    """The Spark distribution's jars: compile and run classpath, compiler too."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = sorted(glob.glob(os.path.join(home or "", "jars", "*.jar")))
    if not jars:
        raise BuildError("no Spark distribution found (set SPARK_HOME)")
    return jars


def sources():
    if not os.path.isdir(REPO_SRC):
        raise BuildError(f"repository sources missing: {os.path.relpath(REPO_SRC, ROOT)}")
    repo = sorted(glob.glob(os.path.join(REPO_SRC, "**", "*.scala"), recursive=True))
    bench = sorted(glob.glob(os.path.join(BENCH_SRC, "**", "*.scala"), recursive=True))
    if not repo or not bench:
        raise BuildError("no Scala sources to build")
    return repo + bench


def java_version():
    out = subprocess.run(["java", "-version"], capture_output=True, text=True)
    return (out.stderr or out.stdout).strip()


def source_digest(srcs):
    """sha256 over every source file's path and content (the code measured)."""
    h = hashlib.sha256()
    for path in srcs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def ensure_built(log=sys.stderr):
    """Compile if any input changed; returns (classpath list, source digest)."""
    jars = spark_jars()
    srcs = sources()
    digest = source_digest(srcs)
    stamp = hashlib.sha256(
        (digest + "\n" + "\n".join(os.path.basename(j) for j in jars) + "\n" + java_version()).encode()
    ).hexdigest()
    cp = [CLASSES] + jars
    if os.path.isdir(CLASSES) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == stamp:
                return cp, digest
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    if os.path.exists(STAMP):
        os.remove(STAMP)
    compiler = [j for j in jars if os.path.basename(j).startswith(("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        raise BuildError("Scala compiler jars not found in the Spark distribution")
    args_file = os.path.join(BUILD, "scalac.args")
    with open(args_file, "w") as f:
        f.write("\n".join(["-d", CLASSES, "-classpath", os.pathsep.join(jars), "-nowarn"] + srcs))
    t0 = time.time()
    print(f"[djbench] compiling {len(srcs)} sources ...", file=log, flush=True)
    proc = subprocess.run(
        ["java", "-Xss8m", "-Xmx2g", "-XX:+UseParallelGC", "-Djava.io.tmpdir=" + BUILD,
         "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main", "@" + args_file],
        stdout=log, stderr=log)
    if proc.returncode != 0:
        shutil.rmtree(CLASSES, ignore_errors=True)
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    with open(STAMP, "w") as f:
        f.write(stamp)
    print(f"[djbench] compiled in {time.time() - t0:.1f}s", file=log, flush=True)
    return cp, digest


if __name__ == "__main__":
    try:
        os.makedirs(BUILD, exist_ok=True)
        ensure_built()
    except BuildError as e:
        print(f"[djbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
