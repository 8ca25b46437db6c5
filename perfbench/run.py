#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload figure-grid --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune into its own build directory
(.bench_build, or $CARGO_TARGET_DIR when set), then runs it from the
root of the checkout. The last line of stdout is the result object;
see perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("figure-grid", "serve-hit", "serve-miss")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s", 3)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def stop(signum, _frame):
    """A termination request unwinds through run(), which kills the
    child's process group (the benchmark and its daemons) first."""
    sys.exit(128 + signum)


def main():
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from a checkout of the repository")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    code = run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed", 1)

    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    code = run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--size", args.size],
        RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
