"""Record the benchmark's reference CSVs and its baseline at the current commit.

    python3 perfbench/record.py reference     # reference/<workload>.json.xz
    python3 perfbench/record.py baseline      # baseline.json (runs run.py)

Run from the root of a git checkout. ``reference`` pins the CSVs of the
default seed's leading jobs; ``baseline`` runs every workload end to end
``REPEATS`` times and traced once on the default seed, and stores the
medians with the environment they were measured in. Both refuse to write
anything when a job raises, a job's output check fails or the reference
comparison fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import run

REPEATS = 3


def record_reference() -> int:
    import reference
    import workloads
    failures = []
    for workload in workloads.WORKLOADS:
        if workload == "oracle_check":
            continue
        tally = run.Tally()
        tables = {}
        for job in workloads.generate(workload, workloads.DEFAULT_SEED,
                                      workloads.REFERENCE_JOBS[workload]):
            outcome = run.run_one(workload, job, tally)
            if outcome is not None:
                tables[str(job.index)] = workloads.job_csvs(workload, job, outcome)
        failures += tally.errors + tally.problems
        if not failures:
            reference.save(workload, tables)
            print(f"{workload}: {sum(len(t) for t in tables.values())} CSVs "
                  f"-> {reference.path(workload).relative_to(run.ROOT)}")
    shutil.rmtree(run.SCRATCH, ignore_errors=True)
    for message in failures:
        print("refused: " + message, file=sys.stderr)
    return 1 if failures else 0


def _bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line.strip() for line in lines[1:-1]]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=run.ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def record_baseline() -> int:
    import numpy
    import workloads
    seed = workloads.DEFAULT_SEED
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    record = {
        "program_commit": _git("rev-parse", "HEAD"),
        "program_src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "environment": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "seed": seed,
        "seconds": seconds,
        "repeats": REPEATS,
        "workloads": {},
    }
    refused = []
    for workload in workloads.WORKLOADS:
        e2e_runs = [_bench(workload, seed, seconds, 0) for _ in range(REPEATS)]
        trace_result, trace_lines = _bench(workload, seed, seconds, 1)
        for result, lines in e2e_runs + [(trace_result, trace_lines)]:
            if not result["correct"] or result["failed"]:
                refused.append(f"{workload}: {result['failed']} of {result['attempted']} jobs "
                               "failed; " + "; ".join(l for l in lines if l.startswith("!")))
        metrics = e2e_runs[0][0]["metrics"]
        record["workloads"][workload] = {
            "end_to_end": {name: {"median": statistics.median(r["metrics"][name]["value"]
                                                              for r, _ in e2e_runs),
                                  "unit": metrics[name]["unit"],
                                  "runs": [r["metrics"][name]["value"] for r, _ in e2e_runs]}
                           for name in metrics},
            "attempted": [r["attempted"] for r, _ in e2e_runs],
            "failed": [r["failed"] for r, _ in e2e_runs],
            "report": [lines for _, lines in e2e_runs],
            "per_layer": {name: m["value"] for name, m in trace_result["metrics"].items()},
        }
        print(f"{workload}: " + ", ".join(
            f"{k} {v['median']:.6g} {v['unit']}"
            for k, v in record["workloads"][workload]["end_to_end"].items()))
    if refused:
        for message in refused:
            print("refused: " + message, file=sys.stderr)
        return 1
    run.BASELINE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.BASELINE.relative_to(run.ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("reference", "baseline"))
    args = parser.parse_args(argv)
    run.import_program()
    if args.what == "reference":
        return record_reference()
    return record_baseline()


if __name__ == "__main__":
    sys.exit(main())
