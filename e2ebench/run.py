#!/usr/bin/env python3
"""Build the e2ebench program from this checkout's sources, then run it.

Run from the repository root:

    python3 e2ebench/run.py --workload rack_mixed --seed 1 --seconds 10 --trace 0

The program is configured once (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, and rebuilt incrementally on every call.
Build output goes to stderr, so the last line on stdout is the program's
JSON result. Arguments are passed to the program unchanged; it validates
them and prints its usage on any error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no simulator sources (src/CMakeLists.txt) beside "
                 "e2ebench/; run from a full checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(cmd))


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    binary = os.path.join(build_dir, "e2ebench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
