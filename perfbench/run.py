#!/usr/bin/env python3
"""End-to-end benchmark of wsnlink's three consumers (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload campaign|contention|serve \
        --seed N --seconds S --trace 0|1

Builds the benchmark (Release) into $CARGO_TARGET_DIR or .bench_build on
first use, then runs one measurement. Human-readable provenance and check
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "contention", "serve")
# Set-up is milliseconds long, so one run times it in this many fresh
# processes and reports the median.
SETUP_SAMPLES = 25
BUILD_TIMEOUT_S = 800
PHASE_TIMEOUT_S = 150
END_TO_END_ORDER = ("items_per_s", "item_p50_us", "item_tail_us", "setup_s",
                    "peak_rss_mb")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "wsnbench"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "wsnbench")


def phase(binary, name, args, extra=()):
    cmd = [binary, "--phase", name, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work", args.work_dir, *extra]
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PHASE_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    args.work_dir = os.path.join(
        build_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(args.work_dir, ignore_errors=True)
    os.makedirs(args.work_dir)
    try:
        return run(binary, build_dir, args)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)


def run(binary, build_dir, args):
    out = phase(binary, "prepare", args)
    if out.returncode != 0:
        log(f"perfbench: prepare failed: {out.stderr.strip()}")
        return 1

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES):
            out = phase(binary, "setup", args)
            if out.returncode != 0:
                log(f"perfbench: set-up failed: {out.stderr.strip()}")
                return 1
            setups.append(json.loads(out.stdout)["setup_s"])
        main_phase, extra = "measure", ()
    else:
        span_dir = os.path.join(build_dir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        spans = os.path.join(span_dir, f"{args.workload}-seed{args.seed}.csv")
        main_phase, extra = "trace", ("--spans", spans)

    out = phase(binary, main_phase, args, extra)
    lines = out.stdout.splitlines()
    if out.returncode not in (0, 1) or not lines:
        log(f"perfbench: {main_phase} failed: {out.stderr.strip()}")
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if result["correct"] and args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
        result["metrics"] = {k: result["metrics"][k] for k in END_TO_END_ORDER}
        print(f"setup_s median of {len(setups)} fresh-process set-ups")
    if out.stderr:
        log(out.stderr.strip())
    print(json.dumps(result))
    return 0 if result["correct"] and out.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
