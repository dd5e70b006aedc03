#!/usr/bin/env python3
"""Self-tests of the repo benchmark, at a small scale (about a minute).

For every output check of every workload, sabotages that check with
--corrupt and requires the run to exit non-zero, report the check as
FAILED, and print "correct": false. Positive controls: each workload passes
untraced and traced at the same scale, and a traced run prints every
per_layer metric of BENCHMARK.json. Guard: the run is refused with
QUASII_FAILPOINTS set. Run from the repository root:

    python3 perfbench/negative_tests.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SMALL = ["--seed", "7", "--seconds", "1", "--scale", "0.05"]

CHECKS = {
    "adaptive_uniform": ["episode_checksum", "converged_results",
                         "scan_oracle", "converged_crack_free",
                         "check_invariants", "host_gauge"],
    "readwrite_clustered": ["preconverged", "mutations_accepted", "scan_oracle",
                            "content_checksum", "episode_repeat",
                            "recovery_checksum", "host_gauge"],
    "serve_mixed": ["preconverged", "requests_ok", "server_checksum",
                    "restart_checksum", "host_gauge"],
}


def run(workload, extra, env=None):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload] + SMALL + extra,
        capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, proc.stdout, result


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        per_layer = [m["name"] for m in json.load(f)["per_layer"]]
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload, checks in CHECKS.items():
        rc, _, res = run(workload, ["--trace", "0"])
        expect(rc == 0 and res is not None and res["correct"],
               f"{workload}: clean run passes")
        rc, _, res = run(workload, ["--trace", "1"])
        expect(rc == 0 and res is not None and res["correct"] and
               sorted(res["metrics"]) == sorted(per_layer),
               f"{workload}: traced run passes and prints every per_layer "
               "metric")
        for check in checks:
            rc, out, res = run(workload, ["--trace", "0", "--corrupt", check])
            expect(rc != 0 and res is not None and not res["correct"] and
                   f"[FAILED] {check}:" in out,
                   f"{workload}: sabotaged {check} exits {rc} and reports it "
                   "FAILED")

    env = dict(os.environ, QUASII_FAILPOINTS="wal_bitflip=1")
    rc, _, res = run("readwrite_clustered", ["--trace", "0"], env=env)
    expect(rc != 0 and res is None,
           "QUASII_FAILPOINTS set: refused without a result")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
