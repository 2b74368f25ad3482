#!/usr/bin/env python3
"""Builds and runs one workload of the campaign benchmark of record.

Usage (from the repository root):

    python3 perfbench/run.py --workload clean_sweep --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a CMake package that compiles the framework from ../src
in Release mode) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs ndb_perfbench with the same arguments.
The last line of stdout is the benchmark's JSON result; the exit code is
non-zero when the build fails or any output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("clean_sweep", "long_stream", "fixture_guided", "fabric_sweep")
# A run measures for --seconds, then finishes its last campaign and, traced,
# its fixed-size passes; past this it is killed and counted as failed.
RUN_MARGIN_S = 120
MAX_SECONDS = 3600


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The Makefile exists only after a configure step succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ndb_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(build_dir, "ndb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--base-seeds", default=None,
                        help="comma-separated base seeds (default: derived "
                             "from --seed)")
    args = parser.parse_args()
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error("--seconds must be in [1, %d]" % MAX_SECONDS)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir]
    if args.base_seeds is not None:
        cmd += ["--base-seeds", args.base_seeds]
    sys.stdout.flush()
    timeout = RUN_MARGIN_S + 2 * args.seconds
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % timeout)
        return 1


if __name__ == "__main__":
    sys.exit(main())
