#!/usr/bin/env python3
"""End-to-end benchmark runner for the simulator and the admission service.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the simulator
from ../src) into $CARGO_TARGET_DIR or .bench_build, runs one workload, and
prints the result JSON as the last line of standard output.  Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-baseline", "graph-heavy", "wide-sharded", "serve-socket")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds; returns True on success.  Output goes to a log."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as shown:
                    sys.stderr.write(shown.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
    return True


def result_line(stdout):
    """The last stdout line, if it is a well-formed result object."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the self-tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    out_dir = build_dir()
    if not build(out_dir):
        return 1

    if args.selftest:
        return subprocess.call(["ctest", "--output-on-failure"], cwd=out_dir)

    cmd = [
        os.path.join(out_dir, "sda_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(out_dir, "work"),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, universal_newlines=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    line = result_line(stdout)
    if proc.returncode != 0 or line is None:
        sys.stderr.write(stdout)
        sys.stderr.write("perfbench: run failed (exit %d)\n" % proc.returncode)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
