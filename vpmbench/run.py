#!/usr/bin/env python3
"""Build and run the end-to-end VPM benchmark from the root of a checkout.

    python3 vpmbench/run.py --workload line-rate --seed 1 --seconds 10 --trace 0

Builds vpmbench/ (which compiles the repository's library with the
repository's own CMake flags) into $CARGO_TARGET_DIR/vpmbench, default
.bench_build/vpmbench, then runs the vpm_e2e program.  Its stdout is
passed through; its last line is the JSON result.  Build output goes to
stderr.  Scratch files (segment-store directories) live under .bench_out/
and are removed before exit; with --trace 1 the recorded spans are written
to .bench_out/spans-<workload>-seed<n>.txt.

Exits nonzero without a result when the sources cannot be built, and with
vpm_e2e's code otherwise (nonzero when the correctness gate fails).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("line-rate", "dense-receipts", "wide-durable")
RUN_TIMEOUT_S = 170


def build(bench_dir: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "vpm_e2e",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return build_dir / "vpm_e2e"


def commit_of(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = (root / target / "vpmbench").resolve()
    try:
        binary = build(bench_dir, build_dir)
    except (OSError, RuntimeError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    out_dir = root / ".bench_out"
    scratch = out_dir / f"scratch-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch), "--commit", commit_of(root)]
    if args.trace:
        cmd += ["--spans-out",
                str(out_dir / f"spans-{args.workload}-seed{args.seed}.txt")]
    try:
        out_dir.mkdir(exist_ok=True)
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: vpm_e2e exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("run.py: vpm_e2e printed no result", file=sys.stderr)
        return done.returncode or 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
