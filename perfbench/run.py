#!/usr/bin/env python3
"""Builds and runs the gridmutex benchmark.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library, the lockd daemon and the benchmark driver (Release) under
.bench_build/perfbench; later runs rebuild only what changed. Build output
goes to stderr; the driver's last line of standard output is the result
JSON, which this script passes through unchanged. Traced runs (--trace 1)
write their Chrome trace-event JSON to .bench_build/perfbench/traces/.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "perfbench")
WORKLOADS = ("paper_grid", "lossy_grid", "lock_service", "lockd_loopback")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver and lockd; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "lockd", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--lockd", os.path.join(BUILD_DIR, "lockd"),
           "--out-dir", trace_dir]
    # Own session, so a hung run can be killed with every daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0:
        try:  # reap daemons a crashed driver could not shut down
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
