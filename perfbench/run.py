#!/usr/bin/env python3
"""End-to-end benchmark of the LSM document store: one command, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload <ingest|scan_warm|lookup_cold> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark's code from source with the stand-alone
sbt build in this directory (once per source change; the build is cached in
.bench_build/), then runs the workload in its own JVM with a fixed heap and
one client thread. Progress goes to stderr. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Any build or run
error exits non-zero without printing a result.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

START = time.monotonic()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ingest", "scan_warm", "lookup_cold")
# Fixed heap per workload (-Xms = -Xmx), sized to about twice the live set.
HEAP = {"ingest": "2g", "scan_warm": "3g", "lookup_cold": "2g"}
RUN_LIMIT_S = 175  # a run, build excluded, ends within three minutes
BUILD_LIMIT_S = 850  # a first build in a fresh checkout ends within 15 minutes
# Spark (traced scan_warm) needs these on Java 17, as spark-submit adds them.
OPENS = ["java.base/" + p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def sources():
    """Every file the build reads from the checkout, in a stable order."""
    files = [os.path.join(BENCH_DIR, "build.sbt"), os.path.join(BENCH_DIR, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(BENCH_DIR, "src", "main")):
        for d, _, names in sorted(os.walk(top)):
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def stamp():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_home():
    """The Spark distribution whose bin/ on the PATH sits next to its jars/."""
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit")))
        if os.path.isfile(os.path.join(d, "spark-submit")) and os.path.isdir(os.path.join(home, "..", "jars")):
            return os.path.dirname(home)
    raise SystemExit("no Spark distribution: set SPARK_HOME")


def build():
    """Compile with sbt unless the cached classpath matches the sources."""
    os.makedirs(BUILD, exist_ok=True)
    cp_file, stamp_file = os.path.join(BUILD, "classpath.txt"), os.path.join(BUILD, "stamp.txt")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        want = stamp()
        if os.path.exists(cp_file) and os.path.exists(stamp_file):
            with open(stamp_file) as f:
                if f.read() == want:
                    with open(cp_file) as g:
                        return g.read().strip()
        log("building with sbt (cached in .bench_build/ afterwards)")
        env = dict(os.environ)
        if "SPARK_HOME" not in env:
            env["SPARK_HOME"] = spark_home()
        env.setdefault("COURSIER_MODE", "offline")
        env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_LIMIT_S)
        lines = proc.stdout.splitlines()
        cp = [l for l in lines if "scala-2.13" in l and os.pathsep in l and not l.startswith("[")]
        if proc.returncode != 0 or not cp:
            sys.stderr.write(proc.stdout[-6000:])
            raise SystemExit(f"build failed (sbt exit {proc.returncode})")
        with open(cp_file, "w") as f:
            f.write(cp[-1])
        with open(stamp_file, "w") as f:
            f.write(want)
        return cp[-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        raise SystemExit("the program's sources (src/main/scala/repro) are not in this checkout")
    classpath = build()

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    data = os.path.join(BUILD, "data", run_id)
    tmp = os.path.join(BUILD, "tmp", run_id)
    os.makedirs(tmp, exist_ok=True)
    heap = HEAP[args.workload]
    cmd = (["java", f"-Xms{heap}", f"-Xmx{heap}", "-XX:+UseSerialGC",
            f"-Djava.io.tmpdir={tmp}", f"-Dorg.xerial.snappy.tempdir={tmp}"]
           + [f"--add-opens={o}=ALL-UNNAMED" for o in OPENS]
           + ["-cp", classpath, "repro.perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--data", data, "--traces", os.path.join(BUILD, "traces")])
    # Spark (traced scan_warm) binds to the loopback interface only.
    env = dict(os.environ)
    env.setdefault("SPARK_LOCAL_IP", "127.0.0.1")
    env.setdefault("SPARK_LOCAL_HOSTNAME", "localhost")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(10, RUN_LIMIT_S - (time.monotonic() - START)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("workload timed out")
    finally:
        shutil.rmtree(data, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"workload failed (exit {proc.returncode})")
    lines = [l for l in out.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        raise SystemExit(f"malformed result: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
