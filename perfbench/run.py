#!/usr/bin/env python3
"""Builds textmr from source and runs one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wc-freq --seed 1 --seconds 20 --trace 0

The optimized build goes to $CARGO_TARGET_DIR if set, else .bench_build.
Generated inputs are cached under .bench_cache, keyed by every generator
parameter; jobs write under .bench_work and traces under .bench_out.
The last line of standard output is the result JSON printed by the
textmr_perfbench binary; build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no textmr sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured from another copy of the sources cannot
        # be reused; start it afresh.
        with open(cache) as f:
            home = [os.path.realpath(line.split("=", 1)[1].strip())
                    for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [os.path.realpath(HERE)]:
            shutil.rmtree(build_dir)
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "textmr_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "textmr_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="wc-freq, index-hash or join-tcp")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    sys.stdout.flush()
    result = subprocess.run([binary, "--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace),
                             "--root", ROOT])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
