#!/usr/bin/env python3
"""Builds the perfbench binary from this source tree and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and is incremental, so only the first run compiles. Build
output goes to stderr; the benchmark's own stdout is passed through, and its
last line is the result object. Workloads: serve_skewed, scan_wide,
ingest_durable (see BENCHMARK.json).
"""

import argparse
import os
import shutil
import subprocess
import sys

# A run must end within 180 s; the budget below leaves room for start-up.
RUN_TIMEOUT_SECONDS = 170


def build(source_dir, build_dir):
    configure = ["cmake", "-S", source_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(source_dir, "..", "src")):
        print("perfbench: the library sources (src/) are missing",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    build_dir = os.path.join(target, "perfbench-cmake")
    out_dir = os.path.join(target, "perfbench-out")
    if not build(source_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_SECONDS).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_SECONDS,
              file=sys.stderr)
        code = 4
    finally:
        # A crashed run can leave its write-ahead log directory behind.
        for name in os.listdir(out_dir):
            if name.startswith("wal-"):
                shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
