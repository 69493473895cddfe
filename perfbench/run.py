#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload <fine|coarse> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]

Run from the root of a checkout. The benchmark package in this directory
is built from source in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then run with the same arguments. The last line of
standard output is the run's JSON result. Build output goes to standard
error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
