#!/usr/bin/env python3
"""Builds zc_bench from this checkout, then runs it with the given arguments.

    python3 bench/e2e/run.py --workload consist_rush --seed 1 --seconds 20 --trace 0
    python3 bench/e2e/run.py --all --seed 2 --out results-seed2

Arguments go to zc_bench unchanged (its modes are described at the top of
zc_bench.cpp); --benchmark BENCHMARK.json and --out are added when absent.
The build tree is $CARGO_TARGET_DIR/e2e (default .bench_build/e2e at the
repository root); build output goes to stderr so that the last line of
stdout is zc_bench's own.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(build_root, "e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    for step in (["cmake", "-S", here, "-B", build],
                 ["cmake", "--build", build, "--target", "zc_bench", "-j", jobs]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: %s failed\n" % " ".join(step[:2]))
            return done.returncode or 1

    args = sys.argv[1:]
    if "--benchmark" not in args:
        args += ["--benchmark", os.path.join(root, "BENCHMARK.json")]
    if "--out" not in args:
        args += ["--out", os.path.join(build_root, "out")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "zc_bench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
