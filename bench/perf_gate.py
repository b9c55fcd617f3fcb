#!/usr/bin/env python3
"""Paired perf gate: a commit's gate binaries against its parent's.

Usage: python3 bench/perf_gate.py BASE_BUILD HEAD_BUILD

BASE_BUILD and HEAD_BUILD are Release build trees of the parent commit and
of the commit under test, each with perf_sweep, perf_network and perf_serve
built. For each gate the script runs PAIRS adjacent pairs of processes, one
per side, alternating which side runs first, and takes the HEAD/base ratio
of the throughput the two runs printed. Host speed drifts between processes
and between days, but two adjacent runs see nearly the same host, so the
median pair ratio follows the code rather than the host.

A gate fails when its median ratio is below MIN_RATIO, when any run exits
non-zero (perf_sweep's allocation ceiling and perf_serve's hit/miss floor
exit 1), or when the two sides print different workload lines. Every gate
runs and reports; the exit status is 1 if any failed.
"""
import os
import re
import statistics
import subprocess
import sys

PAIRS = 30
MIN_RATIO = 0.90

CONFIGS_LINE = r"  configs/sec\s+(\S+)$"

# (gate, argv below <build>/bench, throughput line, unit). Each binary's
# first line describes its workload. The throughput lines are ones every
# version of the binaries prints, so a commit can be compared with a parent
# from before this script; perf_network's last match is its largest rung.
GATES = [
    ("sweep", ["perf_sweep", "--threads", "1", "--repeat", "1"],
     CONFIGS_LINE, "configs/s"),
    # Best of five runs per process: one N=1024 run takes about 30 ms,
    # too short for a single sample to time steadily.
    ("network", ["perf_network", "--repeat", "5"],
     r"  nodes=\s*\d+\s+(\S+) node-packets/sec", "node-packets/s"),
    ("serve", ["perf_serve", "--hot-repeat", "200"],
     r"  cache hit\s+(\S+) req/s", "hits/s"),
]


class GateError(Exception):
    pass


def run(build, argv, pattern):
    """Runs one binary; returns its workload line and its throughput."""
    cmd = [os.path.join(build, "bench", argv[0])] + argv[1:]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise GateError("%s exited %d\n%s%s" % (" ".join(cmd), proc.returncode,
                                                proc.stdout, proc.stderr))
    lines = proc.stdout.splitlines()
    values = [float(m.group(1)) for m in map(re.compile(pattern).match, lines)
              if m]
    if not values:
        raise GateError("%s printed no throughput line\n%s" %
                        (" ".join(cmd), proc.stdout))
    return lines[0], values[-1]


def spread(values, fmt):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return ("median " + fmt + ", quartiles " + fmt + " to " + fmt) % (
        median, q1, q3)


def gate(base_build, head_build, argv, pattern, unit):
    """Runs one gate's pairs and prints its report; returns True on pass."""
    base, head = [], []
    for i in range(PAIRS):
        sides = [(base_build, base), (head_build, head)]
        if i % 2:
            sides.reverse()
        workloads = []
        for build, values in sides:
            workload, value = run(build, argv, pattern)
            workloads.append(workload)
            values.append(value)
        if workloads[0] != workloads[1]:
            raise GateError("the two sides run different workloads:\n  %s\n  %s"
                            % tuple(workloads))
    ratios = [h / b for h, b in zip(head, base)]
    median = statistics.median(ratios)
    print("  workload: %s" % workloads[0])
    print("  base %s: %s" % (unit, spread(base, "%.0f")))
    print("  HEAD %s: %s" % (unit, spread(head, "%.0f")))
    print("  HEAD/base: %s; HEAD won %d of %d pairs" %
          (spread(ratios, "%.3f"), sum(r > 1.0 for r in ratios), PAIRS))
    return median >= MIN_RATIO


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: perf_gate.py BASE_BUILD HEAD_BUILD")
    base_build, head_build = sys.argv[1:]
    print("host_cores=%d; %d adjacent pairs per gate; fail below a median "
          "HEAD/base ratio of %.2f" % (os.cpu_count(), PAIRS, MIN_RATIO))
    failed = []
    for name, argv, pattern, unit in GATES:
        print("%s: %s" % (name, " ".join(argv)))
        try:
            passed = gate(base_build, head_build, argv, pattern, unit)
        except GateError as e:
            print("  %s" % e)
            passed = False
        print("  %s %s" % (name, "ok" if passed else "FAILED"))
        if not passed:
            failed.append(name)
    try:
        _, all_threads = run(head_build, ["perf_sweep"], CONFIGS_LINE)
        print("all-thread perf_sweep at HEAD: %.0f configs/s (host_cores=%d; "
              "not gated)" % (all_threads, os.cpu_count()))
    except GateError as e:
        print("all-thread perf_sweep at HEAD: %s" % e)
        failed.append("perf_sweep (all threads)")
    if failed:
        print("perf gate FAILED: %s" % ", ".join(failed))
        return 1
    print("perf gate ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
