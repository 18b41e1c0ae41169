#!/usr/bin/env python3
"""Benchmark entry point.

Builds mtm_perfbench (and the mtm library it links) from this checkout's
sources into .bench_build/perfbench, then runs one workload in a fresh
process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result; build output goes to
standard error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def revision():
    """Git revision of the checkout, or a digest of its sources without git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:12]


def build():
    """Configures once, then brings the Release build up to date."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD, "mtm_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([
        binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
        "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
        "--revision=" + revision(), "--work-dir=" + work_dir,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
