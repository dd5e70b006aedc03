#!/usr/bin/env python3
"""Runs one workload of the repo benchmark.

Builds the benchmark package in perfbench/ (Release, against the engine
sources in src/) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs it. Everything the benchmark prints goes
to standard output; its last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when the
build fails, a guard refuses the run, or an output check fails.
`--workload all` runs every workload in turn, each report ending with its
own JSON line, and fails if any of them fails.

    python3 perfbench/run.py --workload adaptive_uniform --seed 1 \
        --seconds 30 --trace 0
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("adaptive_uniform", "readwrite_clustered", "serve_mixed")
# Default seed, and the held-out seed kept for re-checking claims on inputs
# nobody tuned against (see perfbench/README.md).
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures and builds the benchmark; returns the binary or None."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", "4"],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every workload size (self-tests only)")
    p.add_argument("--corrupt", default="",
                   help="sabotage one output check (negative tests only)")
    args = p.parse_args()

    if os.environ.get("QUASII_FAILPOINTS"):
        print("run.py: refusing to run with QUASII_FAILPOINTS set",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [binary, f"--workload={workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--workdir={os.path.join(build_dir, 'work')}",
               f"--scale={args.scale}"]
        if args.corrupt:
            cmd.append(f"--corrupt={args.corrupt}")
        sys.stdout.flush()
        try:
            rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            rc = 1
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
