#!/usr/bin/env python3
"""Builds the benchmark and the `mdesc` daemon from source, then runs one
workload and passes its result line through.

    python3 perfbench/run.py --workload paper-sched --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  Build output goes to stderr and to
$CARGO_TARGET_DIR (default: .bench_build); sockets, traces and the
exact-count record go to <target>/perfbench-run.  The last line of stdout
is the result JSON.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper-sched", "customize", "serve-churn")
# The benchmark binary bounds its own run; this only catches a hang.
RUN_TIMEOUT_S = 170


def build(target, *cargo_args):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *cargo_args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo build {' '.join(cargo_args)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target, "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"))
    build(target, "-p", "mdes-tools", "--bin", "mdesc")

    run_dir = os.path.join(target, "perfbench-run")
    os.makedirs(run_dir, exist_ok=True)
    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mdesc", os.path.join(target, "release", "mdesc"),
        "--run-dir", run_dir,
    ]
    # Serial v1 traffic has one request in flight, so every hop between
    # the client and the daemon's threads is a wake-up.  Across CPUs of a
    # virtual machine such wake-ups cost whatever the host's inter-CPU
    # interrupts cost at that moment, which made `serve-churn` bimodal
    # (1 500 or 2 800 requests/s from run to run).  On one CPU the hops
    # stay local and the spread across seeds fell from 40% to under 20%.
    # The daemon inherits the mask.
    pin = None
    if args.workload == "serve-churn":
        pin = {max(os.sched_getaffinity(0))}
    # Its own process group, so a hung run takes its daemon down with it.
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        start_new_session=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None,
    )
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
