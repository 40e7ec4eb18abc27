#!/usr/bin/env python3
"""Builds and runs the served-KV benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench/` (its own Cargo package over the repository's crates)
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload and
passes the program's report through. The last line of standard output is
the result object: `{"correct", "attempted", "failed", "metrics"}` —
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Run records and span traces go to `$CARGO_TARGET_DIR/perfbench-out/`.

Exits non-zero, printing no result, when the build fails, the run fails
or its correctness check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds, for the run record
    (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".lock", ".py"))]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def cpu_times():
    """The host's aggregate CPU counters (Linux), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    a = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--out-dir", os.path.join(target, "perfbench-out"),
           "--host", platform.node() or "unknown",
           "--commit", commit(), "--source-digest", source_digest()]
    before = cpu_times()
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: last line is not a result object", file=sys.stderr)
        return 1
    if not result.get("correct"):
        print("perfbench: result not correct", file=sys.stderr)
        return 1
    after = cpu_times()
    if before and after and len(before) > 7:
        # Time the hypervisor ran someone else while this host wanted
        # the CPU: the main source of run-to-run noise on shared hosts.
        delta = [y - x for x, y in zip(before, after)]
        print(f"host: cpu steal {100.0 * delta[7] / max(1, sum(delta)):.2f}% during the run")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
