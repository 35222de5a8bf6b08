#!/usr/bin/env python3
"""Runs one workload of the précis benchmark and prints its result.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. The first call builds the benchmark
binary and the précis libraries it links (CMake, Release) into the directory
named by $CARGO_TARGET_DIR, or .bench_build by default. Each call then:

  * with --trace 0, starts the binary twice with --setup-only and once for
    the measured run, and reports setup_s as the median of the three set-up
    times (each process builds the dataset, index, shards and server from
    nothing, as a user's process start does);
  * with --trace 1, runs the traced replay once and reports the per-layer
    metrics; spans and per-layer tables are written under <build dir>/trace.

The last line of standard output is the result JSON. Any failure (build,
crash, timeout, malformed output) exits non-zero without printing a result;
a failed run is never retried.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_zipf", "precis_cold", "sharded_cold", "churn")
SETUP_SAMPLES = 3   # set-ups per run, one per process; setup_s is the median
RUN_TIMEOUT_S = 170  # one binary invocation


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    generated = [os.path.join(build_dir, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", build_dir, "--target", "precis_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "precis_perfbench")
    if not os.path.exists(binary):
        fail("build produced no binary")
    return binary


def invoke(cmd):
    """Runs the binary; returns its stdout lines. Exits on any failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
    if proc.returncode != 0:
        fail("run failed with exit code %d: %s" % (proc.returncode,
                                                   " ".join(cmd)))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("run printed no result: " + " ".join(cmd))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    build_dir = os.path.join(build_dir, "perfbench")
    binary = build(build_dir)
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out-dir", build_dir]

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            line = invoke(base + ["--trace", "0", "--setup-only"])[-1]
            setups.append(float(json.loads(line)["setup_s"]))

    lines = invoke(base + ["--trace", str(args.trace)])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("malformed result line: " + lines[-1][:200])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup_samples_s " + json.dumps(setups))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
