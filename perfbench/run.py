#!/usr/bin/env python3
"""Build and run the host-performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune inside the repository, then runs it
with the same arguments.  Its last stdout line is the JSON result; the
exit code is the benchmark's own (0 when every correctness check held).
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: run from the repository root "
            "(no dune-project and lib/ here to build from)\n")
        return 2
    # Build output goes to stderr so the result stays the last stdout line;
    # the shared dune cache is off so nothing is written outside the tree.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
