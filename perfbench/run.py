#!/usr/bin/env python3
"""Build the deadmem benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-suite|pta-ladder|serve-mix \
        --seed N --seconds S --trace 0|1

Run it from the root of a deadmem checkout. The benchmark executable is
built with dune into .bench_build/ (the shared dune cache is disabled, so
nothing is written outside the checkout), then run with the same
arguments; its exit code is returned and its last line of standard
output is the JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# The executable stops itself 120 s after its measured seconds; this is
# the last line of defence against a hang.
RUN_TIMEOUT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the root of a "
              "deadmem checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache")))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
         "--display=quiet", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
