#!/usr/bin/env python3
"""Builds and runs the Podium selection benchmark.

    python3 selbench/run.py --workload miss|hot|custom|shard --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It configures and builds selbench/ (which
compiles the library from src/) under $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs one workload. Build output goes to stderr so that
the last line of stdout is the benchmark's JSON result. With --trace 1 the
traced run's spans are written to <build dir>/spans/.
"""

import os
import subprocess
import sys


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "..", "src", "CMakeLists.txt")
    if not os.path.isfile(source):
        sys.stderr.write("selbench: the library sources (src/) are missing\n")
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(build_root, "selbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "selbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("selbench: build failed: %s\n" % " ".join(step))
            return 1

    args = list(argv)
    values = dict(zip(args[::2], args[1::2]))
    if values.get("--trace") == "1":
        spans = os.path.join(build_root, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans-out", os.path.join(
            spans, "%s-seed%s.json" % (values.get("--workload", "run"),
                                       values.get("--seed", "0")))]
    sys.stdout.flush()
    done = subprocess.run([os.path.join(build, "selbench")] + args)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
