#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload lookup-large --seed 1 --seconds 10 --trace 0

builds the library from src/ and the benchmark from perfbench/ into
.bench_build/, runs one workload and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones, and the spans go to .bench_build/traces/.

--workload all runs every workload in turn, --runs N repeats each with seeds
seed, seed+1, ..., and --out FILE appends one JSON line per finished run
(flushed at once, so a later crash loses no row). compare.py reads such
files.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

WORKLOADS = ["lookup-large", "churn-hot", "scan-mix", "list-local"]
# setup_s is the median of several cold set-ups: the run's own plus fresh
# processes that only build and prefill, as a user's process would. Samples
# are added until there are at least SETUP_MIN_SAMPLES and they have taken
# SETUP_BUDGET_S, or there are SETUP_MAX_SAMPLES; a small structure builds in
# under a millisecond and needs the larger count to give a steady median.
SETUP_MIN_SAMPLES = 5
SETUP_MAX_SAMPLES = 25
SETUP_BUDGET_S = 3.0
RUN_TIMEOUT_S = 170  # one whole run, build excluded
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; exit non-zero if the sources are missing."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("perfbench: src/ not found; run from the root of a full checkout")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    steps.append([os.path.join(BUILD_DIR, "loghist_test")])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log(f"perfbench: {' '.join(cmd)} failed ({r.returncode})")
            sys.exit(3)


def run_lfbench(args, timeout):
    """Run lfbench; return (exit status or None on timeout, stdout lines)."""
    cmd = [os.path.join(BUILD_DIR, "lfbench")] + args
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
            return p.returncode, out.splitlines()
        except subprocess.TimeoutExpired:
            p.kill()
            out, _ = p.communicate()
            return None, out.splitlines()


def failed_row(lines, why):
    """A crashed or timed-out run: every call it made counts as failed."""
    attempted = 1
    for line in lines:
        m = re.match(r"progress attempted=(\d+)", line)
        if m:
            attempted = max(attempted, int(m.group(1)))
    log(f"perfbench: lfbench {why}; counting all {attempted} calls as failed")
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {}}


def one_run(workload, seed, seconds, trace):
    """Returns (result, info): info holds the digest of the run's inputs and
    the figures lfbench reports that are not metrics in BENCHMARK.json."""
    start = time.monotonic()
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(os.path.join(".bench_build", "traces"), exist_ok=True)
        args += ["--trace-out",
                 os.path.join(".bench_build", "traces", f"{workload}.json")]
    status, lines = run_lfbench(args, RUN_TIMEOUT_S - 10)
    info = {}
    for line in lines[:-1]:
        if line.startswith("inputs "):
            info["inputs"] = line.rsplit("all=", 1)[-1]
        elif line.startswith("extra "):
            info["extra"] = json.loads(line[len("extra "):])
        if not line.startswith("progress "):
            print(line, flush=True)
    if status is None:
        return failed_row(lines, "timed out"), info
    if status != 0 or not lines:
        return failed_row(lines, f"exited with status {status}"), info
    result = json.loads(lines[-1])
    if trace:
        return result, info
    samples = [result["metrics"]["setup_s"]["value"]]
    setup_start = time.monotonic()
    while len(samples) < SETUP_MAX_SAMPLES and (
            len(samples) < SETUP_MIN_SAMPLES or
            time.monotonic() - setup_start < SETUP_BUDGET_S):
        left = RUN_TIMEOUT_S - (time.monotonic() - start)
        status, out = run_lfbench(
            ["--workload", workload, "--seed", str(seed), "--setup-only"],
            left)
        if status != 0 or not out:
            return failed_row(lines, f"set-up sample {len(samples)} failed "
                              f"({status})"), info
        samples.append(json.loads(out[-1])["setup_s"])
    print("setup_s samples: " + " ".join(f"{s:.6f}" for s in samples),
          flush=True)
    result["metrics"]["setup_s"]["value"] = statistics.median(samples)
    return result, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out", help="append one JSON line per finished run")
    a = ap.parse_args()
    if not 0 < a.seconds <= 60:
        ap.error("--seconds must be in (0, 60]")

    build()
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    all_ok = True
    for seed in range(a.seed, a.seed + a.runs):
        for w in workloads:
            result, info = one_run(w, seed, a.seconds, a.trace)
            all_ok = all_ok and result["correct"]
            if a.out:
                row = {"workload": w, "seed": seed, "seconds": a.seconds,
                       "trace": a.trace, **info, **result}
                with open(a.out, "a") as f:
                    f.write(json.dumps(row) + "\n")
                    f.flush()
                    os.fsync(f.fileno())
            print(json.dumps(result), flush=True)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
