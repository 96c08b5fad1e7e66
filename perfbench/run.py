#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root. Builds the mrtpl libraries and the
mrtpl_perfbench binary from source into .bench_build/ (configure once,
then incremental), then runs the workload in PROCESSES benchmark processes
that share --seconds, and prints one result object as the last
stdout line; see README.md beside this file. Build output goes to
.bench_build/build.log, never to stdout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "mrtpl_perfbench"
HASH_DIR = BUILD / "hashes"
WORKLOADS = ("grid10k", "grid10k_sharded", "eco")
# Driver processes per untraced run. On a shared host one process keeps
# one draw of memory placement for its whole life: flows in one process
# agree within a few percent while processes differ by up to 20%. So a run
# samples two processes, each given half of --seconds (one flow, or one
# session set-up plus 112+ edits), and reports every metric's median over
# them.
PROCESSES = 2
# A run may take at most 180 s after the build; leave room to report.
RUN_TIMEOUT_S = 170


def fail(message, log=None):
    if log is not None and log.exists():
        sys.stderr.write(log.read_text(errors="replace")[-4000:])
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark binary."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    before = BINARY.stat().st_mtime_ns if BINARY.exists() else None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "mrtpl_perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed: " + " ".join(cmd), log)
    if not BINARY.exists():
        fail("build produced no benchmark binary", log)
    if BINARY.stat().st_mtime_ns != before:
        # Hashes recorded by an older binary say nothing about this one.
        shutil.rmtree(HASH_DIR, ignore_errors=True)


def source_id():
    """Content hash of everything the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="reduced-size inputs (the benchmark's own smoke tests)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    # The traced run stays in one process: its spans go to one file.
    processes = 1 if args.trace else PROCESSES
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / processes), "--trace", str(args.trace),
           "--hash-dir", str(HASH_DIR), "--source-id", source_id(), "--git-sha", git_sha(),
           "--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.quick:
        cmd.append("--quick")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results, codes = [], []
    for _ in range(processes):
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            fail(f"mrtpl_perfbench exited with code {proc.returncode}")
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))  # the record lines
        results.append(json.loads(lines[-1]))
        codes.append(proc.returncode)
    first = results[0]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                           "unit": m["unit"]} for name, m in first.items()},
    }), flush=True)
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
