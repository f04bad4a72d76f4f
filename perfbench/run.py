#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <paper-grid|stream-wide|dynamic-sweep> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`), and result
stores and trace files to `perfbench/` under it. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero, printing no result, when the build or the
run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "mss-perfbench")
    run = subprocess.run([exe, *sys.argv[1:], "--out", os.path.join(target, "perfbench")])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
