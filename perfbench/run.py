#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload sweep|diff|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
perfbench/ (and with it the libraries under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed.  The binary's standard output is
passed through; its last line is the JSON result.  With --trace 1 the
Chrome trace the binary wrote must parse as JSON, or the run fails.
Exits non-zero, without a result line, when the sources are missing,
the build fails, or the binary fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    """Configure (once) and build the binary; return its path or None."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"{' '.join(cmd[:2])} failed: {e}")
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "perfbench")


def check_trace(path):
    """The traced run's Chrome trace must be JSON with spans in it."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return f"trace {path} is not a Chrome trace: {e}"
    if not events:
        return f"trace {path} has no spans"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "diff", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in (0, 60]")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"no library sources at {os.path.join(ROOT, 'src')}; "
                    "run from a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    # Relative, so the serve workload's Unix socket path stays short.
    out_dir = os.path.relpath(os.path.join(ROOT, target_dir, "out"), ROOT)
    exe = build(build_dir)
    if exe is None:
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        return fail("perfbench did not finish within 170 s")
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode not in (0, 1) or not isinstance(result, dict) \
            or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout[-4000:])
        return fail(f"perfbench exited {done.returncode} without a result")
    if args.trace:
        problem = check_trace(os.path.join(
            ROOT, out_dir, f"{args.workload}-seed{args.seed}-trace.json"))
        if problem:
            sys.stderr.write(done.stdout[-4000:])
            return fail(problem)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
