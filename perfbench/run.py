#!/usr/bin/env python3
"""Build and run the canids benchmark.

    python3 perfbench/run.py --workload fleet-clean --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is compiled from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
build output goes to stderr so the last stdout line stays the result JSON.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet-clean", "fleet-attacked", "serve-paced", "campaign-grid")


def build(build_dir, targets):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    target = "perfbench_tests" if args.self_test else "canids_perfbench"
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")):
        print("perfbench: CMakeLists.txt missing", file=sys.stderr)
        return 2
    if not build(build_dir, [target]):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(build_dir, target)
    if args.self_test:
        return subprocess.run([binary]).returncode
    work_dir = os.path.join(root, "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
