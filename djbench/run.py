#!/usr/bin/env python3
"""DeepJoin benchmark runner.

    python3 djbench/run.py --workload webtable --seed 1 --seconds 12 --trace 0
    python3 djbench/run.py --self-test

Builds the program from source (djbench/build.py) on first use, runs one
workload in a pinned JVM (djbench.Main), checks the result against
BENCHMARK.json and prints, as the last line of stdout, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is the run's environment block. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run, whose
spans are written to djbench/.build/traces/. Exits non-zero, printing no
result, when the build, the run or the result check fails.
"""

import argparse
import json
import math
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import build  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Pinned JVM: fixed heap (-Xms = -Xmx) on transparent huge pages where the
# kernel offers them on request, an explicit collector and a fixed processor
# count, which also fixes the common pool the GPU-sim encoder fans
# out on. Spark's width is fixed to local[4] in djbench.Main. The --add-opens
# list is the one Spark's own launcher passes on JDK 17.
THREADS = 4
JVM_FLAGS = [
    "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:+UseTransparentHugePages",
    f"-XX:ActiveProcessorCount={THREADS}", "-Xss8m", "-XX:+IgnoreUnrecognizedVMOptions",
    "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
    "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]

RUN_LIMIT_S = 175      # a run must end within 180 s ...
BUILD_RUN_LIMIT_S = 880  # ... or 900 s when it also builds


def fail(msg):
    print(f"[djbench] {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def validate(metrics, expected):
    """Errors in a metrics map against the BENCHMARK.json entries it must match."""
    errors = []
    want = {m["name"]: m["unit"] for m in expected}
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            errors.append(f"bad metric name {name!r}")
        unit = m.get("unit") if isinstance(m, dict) else None
        if not isinstance(unit, str) or not UNIT_RE.match(unit):
            errors.append(f"metric {name!r} has no valid unit")
        elif name in want and unit != want[name]:
            errors.append(f"metric {name!r} unit {unit!r}, BENCHMARK.json says {want[name]!r}")
        v = m.get("value") if isinstance(m, dict) else None
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"metric {name!r} value {v!r} is not a finite number")
    for name in sorted(set(want) - set(metrics)):
        errors.append(f"metric {name!r} missing")
    for name in sorted(set(metrics) - set(want)):
        errors.append(f"metric {name!r} not in BENCHMARK.json")
    return errors


def self_test_validate():
    spec = [{"name": "a_ms", "unit": "ms"}, {"name": "b.x", "unit": "1/s"}]
    ok = {"a_ms": {"value": 1.5, "unit": "ms"}, "b.x": {"value": 2, "unit": "1/s"}}
    assert validate(ok, spec) == [], validate(ok, spec)
    assert validate({**ok, "bad name": {"value": 1, "unit": "ms"}}, spec)
    assert validate({**ok, "a_ms": {"value": 1.0}}, spec)
    assert validate({**ok, "a_ms": {"value": 1.0, "unit": "s"}}, spec)
    assert validate({**ok, "a_ms": {"value": float("nan"), "unit": "ms"}}, spec)
    assert validate({"a_ms": ok["a_ms"]}, spec)
    print("runner self-tests passed", file=sys.stderr)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def cpu_times():
    """The host's aggregate CPU time counters (Linux /proc/stat), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if not before or not after or len(before) < 8:
        return None
    d = [b - a for a, b in zip(before, after)]
    return round(100.0 * d[7] / sum(d), 2) if sum(d) > 0 else None


def run_jvm(cp, jvm_args, limit_s, log_path):
    """Run djbench.Main; kill its process group if it overruns the limit."""
    work = os.path.join(build.BUILD, "work")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"), TMPDIR=work)
    cmd = ["java"] + JVM_FLAGS + ["-Djava.io.tmpdir=" + work, "-cp", os.pathsep.join(cp),
                                  "djbench.Main"] + jvm_args + ["--work-dir", work]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=env, cwd=ROOT,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=max(10, limit_s))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = None
    if rc != 0:
        with open(log_path) as f:
            tail = f.readlines()[-40:]
        sys.stderr.write("".join(tail))
        fail("run timed out" if rc is None else f"run failed with exit code {rc}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    t_start = time.time()

    spec = load_spec()
    try:
        os.makedirs(build.BUILD, exist_ok=True)
        cp, digest = build.ensure_built()
    except build.BuildError as e:
        fail(f"build failed: {e}")
    limit = (BUILD_RUN_LIMIT_S if time.time() - t_start > 5 else RUN_LIMIT_S) - (time.time() - t_start)
    logs = os.path.join(build.BUILD, "logs")
    os.makedirs(logs, exist_ok=True)

    if args.self_test:
        self_test_validate()
        run_jvm(cp, ["--workload", "self-test"], limit, os.path.join(logs, "self-test.log"))
        print("jvm self-tests passed", file=sys.stderr)
        return

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(build.BUILD, "results", tag + ".json")
    trace_out = os.path.join(build.BUILD, "traces", tag + ".jsonl")
    for p in (out, trace_out):
        os.makedirs(os.path.dirname(p), exist_ok=True)
        if os.path.exists(p):
            os.remove(p)
    cpu0 = cpu_times()
    run_jvm(cp, ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out", out, "--trace-out", trace_out],
            limit, os.path.join(logs, tag + ".log"))

    with open(out) as f:
        result = json.load(f)
    metrics = result["metrics"]
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    errors = validate(metrics, expected)
    if errors:
        fail("result check failed: " + "; ".join(errors))
    env = dict(result["env"], nproc=os.cpu_count(), git_commit=git_commit(), source_sha256=digest,
               jvm_flags=" ".join(JVM_FLAGS[:5]), wall_s=round(time.time() - t_start, 1),
               steal_pct=steal_pct(cpu0, cpu_times()),
               check_failures=result["check_failures"])
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in expected},
    }))


if __name__ == "__main__":
    main()
