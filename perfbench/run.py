"""qmemristor benchmark: one closed-loop workload, end to end or traced.

    python3 perfbench/run.py --workload single_files --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``. One
client in one process sends the next job only after the previous one
returned. The job list is generated from ``--seed``; the program receives
only the generated configs.

``--trace 0`` measures the end-to-end metrics: set-up time (median of fresh
interpreters), completed jobs and memristor-steps per second of service, job
latency median and tail, failed share, digest mismatches against the
reference CSVs, and peak resident set. ``--trace 1``
instead repeats a fixed prefix of the job list, alternating untraced and
traced passes, and reports per-layer counts and times per traced pass plus
the tracing overhead.

Every run first recomputes the default seed's reference jobs and compares
their CSVs with ``reference/``; every job's outputs are checked. Human-readable
lines go to standard output; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
BASELINE = HERE / "baseline.json"

SETUP_REPEATS = 7
TAIL_BEYOND = 10

SETUP_CODE = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.validate_jobs(workloads.generate(sys.argv[3], int(sys.argv[4])))
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Tally:
    """Closed-loop bookkeeping of one series of jobs."""
    attempted: int = 0
    failed: int = 0
    service_s: float = 0.0
    steps: int = 0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)   # output-check failures
    errors: list[str] = field(default_factory=list)     # jobs that raised


def import_program():
    if not (SRC / "qmemristor" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {SRC / 'qmemristor'} is missing; "
                         "run from the root of a qmemristor checkout")
    sys.path.insert(0, str(SRC))
    import qmemristor
    if Path(qmemristor.__file__).resolve().parent != SRC / "qmemristor":
        raise SystemExit(f"error: imported qmemristor from {qmemristor.__file__}, not {SRC}")


def run_one(workload, job, tally: Tally, tracer=None):
    """Run one job in a clean output directory, time it and check its outputs.

    Returns the outcome if the job completed and passed its check, else None.
    """
    import layers
    import workloads
    out_dir = SCRATCH / "job"
    shutil.rmtree(out_dir, ignore_errors=True)
    started = time.perf_counter()
    try:
        if tracer is None:
            outcome = workloads.run_job(workload, job, out_dir)
        else:
            with tracer.patched(layers.TARGETS):
                outcome = workloads.run_job(workload, job, out_dir)
    except Exception as exc:   # a job that raises is a failed job, not a crash
        tally.service_s += time.perf_counter() - started
        tally.attempted += 1
        tally.failed += 1
        tally.errors.append(f"job {job.index}: {type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - started
    tally.service_s += elapsed
    tally.attempted += 1
    problems = workloads.check_outcome(workload, job, outcome)
    if problems:
        tally.failed += 1
        tally.problems += [f"job {job.index}: {p}" for p in problems]
        return None
    tally.latencies.append(elapsed)
    tally.steps += workloads.steps_of(job)
    return outcome


def check_reference(workload: str) -> tuple[int, list[str]]:
    """Recompute the default seed's reference jobs; (digest mismatches, problems).

    A reference job that raises is a problem here, not a failed job: its
    outputs are pinned, so it must complete.
    """
    import reference
    import workloads
    expected = reference.load(workload) if reference.path(workload).exists() else None
    jobs = workloads.generate(workload, workloads.DEFAULT_SEED,
                              workloads.REFERENCE_JOBS[workload])
    tally = Tally()
    mismatches, problems = 0, []
    for job in jobs:
        outcome = run_one(workload, job, tally)
        if outcome is None or workload == "oracle_check":
            continue
        if expected is None:
            problems.append(f"no reference file {reference.path(workload).name}")
            break
        actual = workloads.job_csvs(workload, job, outcome)
        pinned = expected.get(str(job.index), {})
        if sorted(actual) != sorted(pinned):
            problems.append(f"job {job.index}: CSV set {sorted(actual)} "
                            f"differs from reference {sorted(pinned)}")
        for name in sorted(set(actual) & set(pinned)):
            if reference.digest(actual[name]) != reference.digest(pinned[name]):
                mismatches += 1
            problems += [f"job {job.index} {name}: {p}"
                         for p in reference.compare(pinned[name], actual[name])[:3]]
    return mismatches, tally.errors + tally.problems + problems


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time in fresh interpreters; the first (cold) run is discarded."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples): the highest percentile of the latencies
    with at least TAIL_BEYOND samples beyond it, or None if there are too few."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    import workloads
    setup = measure_setup(workload, seed)
    jobs = workloads.generate(workload, seed)
    workloads.validate_jobs(jobs)
    mismatches, ref_problems = check_reference(workload)

    tally = Tally()
    i = 0
    while tally.service_s < seconds or i % workloads.CYCLE[workload]:
        run_one(workload, jobs[i % len(jobs)], tally)
        i += 1
    shutil.rmtree(SCRATCH, ignore_errors=True)

    done = len(tally.latencies)
    if not done:
        raise SystemExit(f"error: no {workload} job completed: {tally.errors[:3]}")
    t = tail(tally.latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (done / tally.service_s, "1/s"),
        "steps_per_s": (tally.steps / tally.service_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }

    def row(name):
        value, unit = metrics[name]
        return f"{name:<18} {value:.6g} {unit}"

    lines = [f"setup runs         {' '.join(f'{s:.4f}' for s in setup)} s",
             row("setup_s"),
             row("jobs_per_s") + f" ({done} jobs in {tally.service_s:.4g} s of service)",
             row("steps_per_s"),
             f"job_ms_p50         {1e3 * statistics.median(tally.latencies):.6g} ms",
             "job_ms_tail        " + (f"{1e3 * t[0]:.6g} ms (p{t[1]:.1f} of {t[2]} jobs)" if t
                                      else f"n/a ({done} jobs, need > {TAIL_BEYOND})"),
             f"failed_frac        {tally.failed / tally.attempted:.6g} ratio "
             f"({tally.failed} of {tally.attempted} jobs)",
             f"digest_mismatches  {mismatches} count "
             f"(reference jobs of seed {workloads.DEFAULT_SEED})",
             row("peak_rss_mb")]
    return {"lines": lines, "tally": tally, "problems": ref_problems,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(workload: str, seed: int, seconds: float) -> dict:
    import layers
    import workloads
    from tracer import Tracer
    jobs = workloads.generate(workload, seed, workloads.TRACE_JOBS[workload])
    workloads.validate_jobs(jobs)
    _, ref_problems = check_reference(workload)

    plain, tally = Tally(), Tally()
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        for job in jobs:
            run_one(workload, job, plain)
        tracer = Tracer()
        for job in jobs:
            run_one(workload, job, tally, tracer)
        passes.append(layers.layer_metrics(tracer))
    shutil.rmtree(SCRATCH, ignore_errors=True)

    if not (tally.latencies and plain.latencies):
        raise SystemExit(f"error: no {workload} job completed: {tally.errors[:3]}")
    first = passes[0]
    counts = [k for k, v in first.items() if isinstance(v, int)]
    drift = [k for k in counts if any(p[k] != first[k] for p in passes[1:])]
    values = {k: first[k] if k in counts else statistics.fmean(p[k] for p in passes)
              for k in first}
    traced_jps = len(tally.latencies) / tally.service_s
    plain_jps = len(plain.latencies) / plain.service_s
    values.update({
        "trace.pass_jobs": len(jobs),
        "trace.jobs_per_s": traced_jps,
        "trace.untraced_jobs_per_s": plain_jps,
        "trace.overhead_pct": 100.0 * (plain_jps / traced_jps - 1.0),
        "trace.count_drift": len(drift),
    })
    problems = ref_problems + [f"count drift between passes: {k}" for k in drift]
    notes = _baseline_count_drift(workload, seed, values)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.problems += plain.problems
    tally.errors += plain.errors
    lines = [f"traced passes      {len(passes)} x {len(jobs)} jobs"]
    lines += [f"{k:<26} {v:.6g} {layers.METRICS[k][0]}" for k, v in values.items()]
    lines += notes
    return {"lines": lines, "tally": tally, "problems": problems,
            "metrics": {k: {"value": v, "unit": layers.METRICS[k][0]} for k, v in values.items()}}


def _baseline_count_drift(workload: str, seed: int, values: dict) -> list[str]:
    """Flag exact counts of the default seed that differ from baseline.json.

    A change to the program may move a count on purpose, so this is a flag
    for the reader, not an output error.
    """
    import layers
    import workloads
    if seed != workloads.DEFAULT_SEED or not BASELINE.exists():
        return []
    pinned = json.loads(BASELINE.read_text(encoding="utf-8"))["workloads"].get(workload, {})
    pinned = pinned.get("per_layer", {})
    drift = [f"{k} {values[k]} (baseline {pinned[k]})" for k in layers.EXACT_COUNTS
             if k in pinned and values[k] != pinned[k]]
    return ["exact counts vs baseline.json: " + (", ".join(drift) if drift else "all equal")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"closed loop with one client, trace {args.trace}")
    measure = traced if args.trace else end_to_end
    report = measure(args.workload, args.seed, args.seconds)
    tally: Tally = report["tally"]
    for line in report["lines"]:
        print("  " + line)
    problems = report["problems"] + tally.problems
    for message in (tally.errors + problems)[:20]:
        print("  ! " + message)
    print(json.dumps({"correct": not problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
