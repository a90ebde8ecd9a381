"""The benchmark's four workloads: seeded job lists, job runners, output checks.

A job is one user-level call into the public API. The job list of a workload
is a pure function of (workload, seed), so the program under test only ever
sees the generated configs. Continuous parameters are drawn by stratified
sampling in blocks: every block of consecutive jobs covers each stratum of
each range once, in shuffled order. A run that completes a few blocks then
does nearly the same amount of work whatever the seed, which keeps run-to-run
spread small, while every draw still comes from the seed and stays inside the
presets' physical ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qmemristor import dynamics, ops, runner
from qmemristor.config import RunConfig, apply_overrides
from qmemristor.presets import preset

WORKLOADS = ("single_files", "coupled_exact", "scan_files", "oracle_check")
DEFAULT_SEED = 0

A_RANGE = (math.pi / 8, 3 * math.pi / 8)
B_RANGE = (0.0, 2 * math.pi)
GAMMA0_RANGE = (0.02, 0.4)
DELTA_RANGE = (0.1, 1.0)

SINGLE_SHAPES = ("fig1a", "fig1b", "fig4")
COUPLED_KINDS = ("fig7", "fig9", "appx_xx", "appx_zz", "appx_crx", "appx_crz",
                 "appx_pswap")
SCAN_PRESET = "fig9"
SCAN_POINTS = 5
ORACLE_SHAPE = "fig4"
STRATA = 10

# Jobs generated per run; a run that gets through the list starts it again.
JOB_COUNT = {"single_files": 1200, "coupled_exact": 140, "scan_files": 20,
             "oracle_check": 120}
# A timed run ends on a whole cycle, so every kind and every stratum of the
# drawn parameters is run equally often.
CYCLE = {"single_files": len(SINGLE_SHAPES) * STRATA, "coupled_exact": len(COUPLED_KINDS),
         "scan_files": 1, "oracle_check": STRATA}
# Jobs per pass of a traced run (a fixed prefix, so counts repeat exactly).
TRACE_JOBS = {"single_files": 30, "coupled_exact": 7, "scan_files": 1,
              "oracle_check": 3}
# Leading jobs of the default seed whose CSVs are pinned in reference/.
REFERENCE_JOBS = {"single_files": 3, "coupled_exact": 2, "scan_files": 1,
                  "oracle_check": 1}

# Criterion 1 of the acceptance suite.
ANALYTIC_TOL = 1e-9
LINDBLAD_TOL = 1e-6
LINDBLAD_DT = 1e-3



@dataclass(frozen=True)
class Job:
    index: int
    config: RunConfig
    deltas: tuple[float, ...] = ()   # scan ladder; empty for other workloads


@dataclass
class Outcome:
    """What a job returned, kept for the output check."""
    result: object = None
    out_dir: Path | None = None


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float,
                block: int = STRATA) -> np.ndarray:
    """n draws in [lo, hi); each block of `block` draws hits every stratum once."""
    n_blocks = -(-n // block)
    u = np.concatenate([(rng.permutation(block) + rng.random(block)) / block
                        for _ in range(n_blocks)])[:n]
    return lo + (hi - lo) * u


def generate(workload: str, seed: int, n: int | None = None) -> list[Job]:
    """The workload's job list for `seed` (the first `n` jobs, default all)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    n = JOB_COUNT[workload] if n is None else n
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "single_files":
        a = _stratified(rng, n, *A_RANGE)
        b = _stratified(rng, n, *B_RANGE) % B_RANGE[1]
        g = _stratified(rng, n, *GAMMA0_RANGE)
        shot_seeds = rng.integers(0, 2 ** 63, size=n)
        return [Job(i, apply_overrides(preset(SINGLE_SHAPES[i % len(SINGLE_SHAPES)]),
                                       a1=float(a[i]), b1=float(b[i]),
                                       gamma0_1=float(g[i]), shots_mode="sampled",
                                       seed=int(shot_seeds[i])))
                for i in range(n)]
    if workload == "coupled_exact":
        d = _stratified(rng, n, *DELTA_RANGE, block=len(COUPLED_KINDS))
        return [Job(i, apply_overrides(preset(COUPLED_KINDS[i % len(COUPLED_KINDS)]),
                                       delta=float(d[i]), shots_mode="exact"))
                for i in range(n)]
    if workload == "scan_files":
        base = apply_overrides(preset(SCAN_PRESET), shots_mode="exact")
        return [Job(i, base, tuple(float(x) for x in np.sort(
                    _stratified(rng, SCAN_POINTS, *DELTA_RANGE, block=SCAN_POINTS))))
                for i in range(n)]
    a = _stratified(rng, n, *A_RANGE)
    b = _stratified(rng, n, *B_RANGE) % B_RANGE[1]
    g = _stratified(rng, n, *GAMMA0_RANGE)
    return [Job(i, apply_overrides(preset(ORACLE_SHAPE), a1=float(a[i]), b1=float(b[i]),
                                   gamma0_1=float(g[i]), shots_mode="exact"))
            for i in range(n)]


def validate_jobs(jobs: list[Job]) -> None:
    """Run the config layer's validate() on every config a job will use."""
    for job in jobs:
        job.config.validate()
        for d in job.deltas:
            apply_overrides(job.config, delta=d).validate()


def steps_of(job: Job) -> int:
    """Memristor-steps of a job: grid steps x memristors, summed over trajectories."""
    cfg = job.config
    memristors = 2 if cfg.mode == "coupled" else 1
    return cfg.periods * cfg.steps_per_period * memristors * max(1, len(job.deltas))


def run_job(workload: str, job: Job, out_dir: Path) -> Outcome:
    """Make the job's one call into the public API."""
    if workload == "single_files":
        return Outcome(runner.run(job.config, out_dir), out_dir)
    if workload == "coupled_exact":
        return Outcome(runner.execute(job.config))
    if workload == "scan_files":
        return Outcome(runner.delta_scan(job.config, job.deltas, out_dir), out_dir)
    return Outcome(_oracle_job(job.config))


def _oracle_job(cfg: RunConfig) -> tuple[float, float]:
    """Criterion 1 on one config: deviations from the analytic and RK4 oracles."""
    parts = cfg.validate()
    init, profile = parts.init1, parts.profile1
    states = dynamics.run_single(init, profile, parts.grid)
    dev_analytic = max(float(np.abs(s.rho - dynamics.analytic_oracle(init, profile, s.time)).max())
                       for s in states)
    final = states[-1]
    lab = dynamics.lindblad_oracle(init, profile, final.time, LINDBLAD_DT)
    sx_s, sy_s = ops.frame_to_schroedinger(2 * final.rho[0, 1].real,
                                           -2 * final.rho[0, 1].imag,
                                           final.time, profile.omega)
    dev_lindblad = max(abs(sx_s - 2 * lab[0, 1].real), abs(sy_s + 2 * lab[0, 1].imag))
    return dev_analytic, float(dev_lindblad)


def check_outcome(workload: str, job: Job, outcome: Outcome) -> list[str]:
    """Problems with a job's outputs; an empty list means the outputs are sound."""
    cfg = job.config
    rows = cfg.periods * cfg.steps_per_period + 1
    if workload == "oracle_check":
        dev_a, dev_l = outcome.result
        problems = []
        if not dev_a <= ANALYTIC_TOL:
            problems.append(f"analytic deviation {dev_a:.3e} > {ANALYTIC_TOL:g}")
        if not dev_l <= LINDBLAD_TOL:
            problems.append(f"lindblad deviation {dev_l:.3e} > {LINDBLAD_TOL:g}")
        return problems
    if workload == "coupled_exact":
        return _check_result(outcome.result, rows)
    tables = read_csvs(outcome.out_dir)
    if workload == "single_files":
        return (_check_result(outcome.result, rows)
                + _check_tables(tables, rows, coupled=False))
    problems = _check_tables(tables, rows, coupled=True)
    summary = tables.get("scan_summary.csv")
    if summary is None:
        return problems + ["scan_summary.csv missing"]
    values = _parse(summary)
    if values.shape[0] != len(job.deltas):
        problems.append(f"scan_summary.csv has {values.shape[0]} rows, "
                        f"expected {len(job.deltas)}")
    if not np.isfinite(values).all():
        problems.append("scan_summary.csv holds a non-finite value")
    n_traces = sum(1 for name in tables if name.endswith("trace.csv"))
    if n_traces != len(job.deltas):
        problems.append(f"{n_traces} trace.csv files, expected {len(job.deltas)}")
    return problems


def _check_result(result: runner.RunResult, rows: int) -> list[str]:
    trace = result.trace
    problems = []
    if len(trace.t) != rows:
        problems.append(f"trace has {len(trace.t)} rows, expected {rows}")
    arrays = [trace.t] + [getattr(q, f) for q in trace.qubits
                          for f in ("sx_i", "sy_i", "sx_s", "sy_s", "gamma",
                                    "voltage", "current")]
    if not all(np.isfinite(x).all() for x in arrays):
        problems.append("trace holds a non-finite value")
    for q_metrics in result.metrics:
        if not all(math.isfinite(v) for m in q_metrics
                   for v in (m.area, m.perimeter, m.form_factor, m.pinch_distance)):
            problems.append("loop metrics hold a non-finite value")
    if trace.concurrence is not None:
        c = np.asarray(trace.concurrence)
        if not (np.isfinite(c).all() and c.min() >= 0.0 and c.max() <= 1.0):
            problems.append("concurrence outside [0, 1]")
    return problems


def _check_tables(tables: dict[str, str], rows: int, coupled: bool) -> list[str]:
    problems = []
    for name, text in tables.items():
        if name == "scan_summary.csv":
            continue
        values = _parse(text)
        if not np.isfinite(values).all():
            problems.append(f"{name} holds a non-finite value")
        if name.endswith("trace.csv"):
            if values.shape[0] != rows:
                problems.append(f"{name} has {values.shape[0]} rows, expected {rows}")
            if coupled and not (values[:, -1].min() >= 0.0 and values[:, -1].max() <= 1.0):
                problems.append(f"{name} concurrence outside [0, 1]")
    if not any(name.endswith("trace.csv") for name in tables):
        problems.append("no trace.csv written")
    return problems


def _parse(text: str) -> np.ndarray:
    lines = text.splitlines()[1:]
    return np.array([[float(x) for x in line.split(",")] for line in lines]).reshape(len(lines), -1)


def read_csvs(out_dir: Path) -> dict[str, str]:
    """Every CSV under out_dir, keyed by its path relative to out_dir."""
    return {p.relative_to(out_dir).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(out_dir.rglob("*.csv"))}


def job_csvs(workload: str, job: Job, outcome: Outcome) -> dict[str, str]:
    """The trace/metrics CSVs of a job, as the program renders them."""
    if workload in ("single_files", "scan_files"):
        return read_csvs(outcome.out_dir)
    if workload == "coupled_exact":
        result = outcome.result
        texts = {"trace.csv": runner.trace_csv(result.trace)}
        for q, q_metrics in enumerate(result.metrics):
            texts[f"metrics_q{q + 1}.csv"] = runner.metrics_csv(q_metrics)
        return texts
    return {}
