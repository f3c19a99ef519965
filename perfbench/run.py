#!/usr/bin/env python3
"""presto benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the benchmark (perfbench/CMakeLists.txt,
Release) into .bench_build/perfbench on first use, then runs one workload:
--trace 0 prints the end-to-end metrics, --trace 1 runs the layer run and
prints the per-layer metrics, writing the benchmark's spans to
.bench_out/spans-<workload>-<seed>.json. The last stdout line is the result
JSON. --selftest runs the benchmark's own tests. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("converged", "read_misses", "wide_updates")
RUN_LIMIT_S = 170  # a run, after any build, must end within 180 s


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error. On a
    timeout the step's whole process group (make, compilers) is killed."""
    with subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          start_new_session=True) as p:
        try:
            code = p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            fail(f"timed out: {' '.join(cmd)}")
    if code != 0:
        fail(f"failed ({code}): {' '.join(cmd)}")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("presto sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=120)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets],
              timeout=720)


def run_bench(args, deadline):
    """Runs presto_perfbench; returns (exit code, stdout lines)."""
    cmd = [os.path.join(BUILD, "presto_perfbench"), *args]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        try:
            out, _ = p.communicate(timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            fail("benchmark run exceeded its deadline")
    return p.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return res if isinstance(res, dict) and set(res) == keys else None


def selftest(deadline):
    build(["presto_perfbench", "perfbench_tests"])
    r = subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                       timeout=max(1.0, deadline - time.time()))
    if r.returncode != 0:
        fail("perfbench_tests failed", 1)
    # A planted checksum mismatch must surface as a failed cell, end to end.
    for mode in ("measure", "layers"):
        code, lines = run_bench(["--workload", "read_misses", "--seed", "1",
                                 "--seconds", "1", "--mode", mode,
                                 "--plant-mismatch"], deadline)
        res = parse_result(lines)
        if code != 0 or res is None or res["correct"] or res["failed"] < 1:
            fail(f"planted mismatch not counted in {mode} mode", 1)
    # The guard must refuse to measure a program an environment variable
    # changes.
    env = dict(os.environ, PRESTO_BACKEND="thread")
    r = subprocess.run([os.path.join(BUILD, "presto_perfbench"), "--workload",
                        "converged", "--seed", "1", "--seconds", "1"],
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=60)
    if r.returncode == 0 or r.stdout:
        fail("guard did not refuse PRESTO_BACKEND", 1)
    print("perfbench selftest: all passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        selftest(time.time() + 600)
        return
    if a.workload is None or a.seed is None or a.seed < 0:
        ap.error("--workload and a non-negative --seed are required")
    if not 1 <= a.seconds <= 60:
        ap.error("--seconds must be 1..60")
    build(["presto_perfbench"])
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds)]
    if a.trace:
        os.makedirs(OUT, exist_ok=True)
        args += ["--mode", "layers", "--spans",
                 os.path.join(OUT, f"spans-{a.workload}-{a.seed}.json")]
    code, lines = run_bench(args, time.time() + RUN_LIMIT_S)
    if code != 0:
        fail(f"presto_perfbench exited with {code}", code)
    res = parse_result(lines)
    if res is None:
        fail("presto_perfbench printed no result line", 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
