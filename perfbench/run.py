#!/usr/bin/env python3
"""End-to-end benchmark of three `fav evaluate` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rad-sampled --seed 1 --seconds 20 --trace 0

The script builds favbench (perfbench/CMakeLists.txt) into
.bench_build/perfbench, then starts one favbench process per repetition until
--seconds have passed (at least MIN_REPS repetitions). Repetition r of seed S
evaluates the sample stream of seed S * 1000 + r. Every repetition checks its
answer; the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end medians over the repetitions;
with --trace 1 every repetition also replays its campaign through the layers'
public functions, and the metrics are the per-layer medians. The spans of the
last traced repetition are kept in .bench_build/traces/<workload>.jsonl.
README.md in this directory explains the workloads and the metrics.
"""

import argparse
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
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
FAVBENCH = BUILD / "favbench"

# Workload names and metric tables live in BENCHMARK.json at the repository
# root; favbench's per-layer names must match its table.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

MIN_REPS = 3
REP_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then (re)builds favbench; quiet unless it fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "favbench"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))


def run_favbench(args):
    """Runs favbench; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([str(FAVBENCH), *args], capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"favbench {' '.join(args)} exited {proc.returncode}:\n"
             f"{proc.stderr}")
    return proc.returncode, json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Repetitions of one workload; returns their result objects."""
    work = BUILD_ROOT / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # The warm workloads load this artifact (the cold one ignores it);
        # seeding it is not timed.
        artifact = work / "warm.fpca"
        proc = subprocess.run([str(FAVBENCH), "seed", "--artifact",
                               str(artifact)], capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"seeding the artifact failed:\n{proc.stderr}")
        traces = BUILD_ROOT / "traces"
        traces.mkdir(exist_ok=True)
        reps = []
        start = time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
            rep_dir = work / f"rep{len(reps)}"
            rep_dir.mkdir()
            args = ["run", "--workload", workload,
                    "--seed", str((seed * 1000 + len(reps)) % 2**64),
                    "--work", str(rep_dir), "--artifact", str(artifact)]
            if trace:
                args += ["--trace", str(traces / f"{workload}.jsonl")]
            code, result = run_favbench(args)
            result["exit_code"] = code
            reps.append(result)
            shutil.rmtree(rep_dir)
        return reps
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    reps = measure(args.workload, args.seed, args.seconds, args.trace == 1)

    failures = [f for r in reps for f in r["check_failures"]]
    for r in reps:
        print(f"{r['workload']} seed={r['seed']} setup_s={r['setup_s']:.4f} "
              f"campaign_s={r['campaign_s']:.4f} total_s={r['total_s']:.4f} "
              f"ssf={r['ssf']:.6g} checks={r['checks']} "
              f"failures={r['check_failures']}")
    if args.trace:
        table = PER_LAYER
        rows = [r["per_layer"] for r in reps]
        for row in rows:
            if set(row) != {name for name, _ in PER_LAYER}:
                fail(f"favbench per-layer metrics differ from {PER_LAYER}")
    else:
        table = END_TO_END
        rows = reps
    metrics = {
        name: {"value": statistics.median(row[name] for row in rows),
               "unit": unit}
        for name, unit in table
    }
    correct = not failures and all(r["exit_code"] == 0 for r in reps)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["samples"] for r in reps),
        "failed": sum(r["failed_samples"] for r in reps) + len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
