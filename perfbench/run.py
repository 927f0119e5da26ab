#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-opt --seed 1 --seconds 35 --trace 0

The benchmark executable (perfbench/bench.ml) is built with dune into
.bench_build/ (the first run in a fresh checkout compiles the libraries it
links), then run in place of this process, so its standard output, exit
code and result line are the benchmark's.  Build output goes to standard
error.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.stderr.write("perfbench: run from the root of a ddm checkout\n")
        return 2
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        sys.stderr.write("perfbench: neither dune nor opam is on PATH\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release", TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
        stdin=subprocess.DEVNULL,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
