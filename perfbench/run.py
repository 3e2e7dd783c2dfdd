#!/usr/bin/env python3
"""Build the study benchmark from this checkout's sources and run it.

Usage (from the checkout root):

    python3 perfbench/run.py --workload hw_factorial --seed 1 --seconds 10 --trace 0

--trace 0 runs the untraced pass (end-to-end metrics); --trace 1 runs
the traced pass (per-layer ledger). Extra flags (--size tiny,
--perturb CHECK) go to the benchmark binary unchanged.

The simulator library is compiled in Release mode from ../src into
$CARGO_TARGET_DIR (default .bench_build) under the checkout; the last
line of standard output is the benchmark's JSON result. See NOTES.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hw_factorial", "cluster_write_faults", "traced_provenance")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "tmbench", "tmbench_traced"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=840)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources next to {HERE}; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)

    binary = os.path.join(build_dir,
                          "tmbench_traced" if args.trace else "tmbench")
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--data-dir", os.path.join(HERE, "workloads"),
           "--work-dir", os.path.join(target, "work")] + extra
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
