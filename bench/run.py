"""Benchmark entry point: one workload, one seed, timed or traced.

    python3 bench/run.py --workload train-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

Run from anywhere; the program is imported from this checkout's ``src/``.
The last line of standard output is the result as one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics`` holds
every ``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0`` and
every ``per_layer`` metric with ``--trace 1``. Progress and failures go to
standard error. Exits non-zero, printing no result, when the program
cannot be imported or a run cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import workloads

BENCHMARK = workloads.ROOT / "BENCHMARK.json"


def result(declared, metrics, correct, attempted, failed) -> dict:
    """The result object; ``metrics`` must name exactly the declared metrics."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }


def run_one(bench, workload, seed, seconds, trace) -> dict:
    workloads.load_program()
    import harness  # imports numpy and xreid, after the thread pinning

    run_dir = workloads.RUNS / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    work = run_dir / "work"
    try:
        if trace:
            metrics, session, failures = harness.traced_run(workload, seed, seconds, work)
        else:
            metrics, session, failures = harness.timed_run(workload, seed, seconds, work)
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)
        report = session.rounds[-1]["report"]
        print(f"{workload} seed {seed}: rank-1 {report.rank(1):.4f}, mAP {report.map:.4f}", file=sys.stderr)
        declared = bench["per_layer" if trace else "end_to_end"]
        out = result(declared, metrics, not failures, session.attempted, session.failed)
        (run_dir / "result.json").write_text(json.dumps(out, indent=1) + "\n")
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(bench, seed, seconds, trace) -> dict:
    """Each workload in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=900,
        )
        one = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={one['correct']} attempted={one['attempted']} failed={one['failed']}")
        for name, m in one["metrics"].items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
    return combined


def main(argv=None) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            out = run_all(bench, args.seed, args.seconds, args.trace)
        else:
            out = run_one(bench, args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
