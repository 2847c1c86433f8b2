#!/usr/bin/env python3
"""Build and run the CORDOBA study benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <space_sweep|horizon_study|store_session> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it. The last line of standard output is
the result object. Exits non-zero without a result when the build or the
run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("space_sweep", "horizon_study", "store_session")
RUN_TIMEOUT_S = 170


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 of the program and benchmark sources, standing in for the
    commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.lock", *sorted((ROOT / "crates").rglob("*.rs")),
             *sorted((ROOT / "crates").rglob("Cargo.toml")), *sorted((HERE / "benches").rglob("*.rs"))]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "-V"]) or "unknown"
    commit = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    env["PERFBENCH_COMMIT"] = commit or "none"
    env["PERFBENCH_SOURCE"] = source_digest()

    binary = ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"
    argv = [str(binary), "--workload", args.workload, "--seed", args.seed,
            "--seconds", str(args.seconds), "--trace", args.trace, "--work", str(HERE / ".work")]
    try:
        return subprocess.run(argv, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
