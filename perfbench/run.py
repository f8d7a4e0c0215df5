#!/usr/bin/env python3
"""Builds the queue benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload pairs|handoff|backlog --seed N --seconds S --trace 0|1

The benchmark is the Rust package in this directory (its own workspace,
built with the queue's crates as path dependencies). Cargo's target
directory is $CARGO_TARGET_DIR, or .bench_build at the root. The last line
of standard output is the result JSON; build output goes to standard error.
A traced run also writes its spans to perfbench/traces/.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds from, so a report
    names the code it measured even where there is no git metadata."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "traces"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    # Only this checkout's own metadata: git must not walk up into a
    # repository that merely contains it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    for dep in ("crates/core/Cargo.toml", "crates/baselines/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, dep)):
            fail(f"{dep} is missing: the benchmark builds the queue from the repository's sources")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("the benchmark did not build")
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target), "release", "wfq-perfbench")
    args = [binary, *sys.argv[1:], "--commit", commit(), "--source-digest", source_digest(),
            "--trace-dir", os.path.join(HERE, "traces")]
    try:
        run = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
