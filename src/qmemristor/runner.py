"""Run orchestration: dynamics -> measurement -> analysis -> files.

A run writes one trace CSV, one metrics CSV per qubit, and SVG plots into its
output directory, then reports a text summary. ``delta_scan`` repeats a
coupled run across coupling strengths and summarizes pinch survival and
entanglement events per point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, dynamics, measurement, svgplot
from .analysis import EntanglementEvent, LoopMetrics
from .config import RunConfig, apply_overrides
from .errors import ConfigError
from .measurement import ObservableTrace

DEFAULT_PINCH_TOL = 3e-3
DEFAULT_SCAN_DELTAS = tuple(np.linspace(0.1, 1.0, 10))


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    trace: ObservableTrace
    metrics: tuple[list[LoopMetrics], ...]       # one list per qubit
    events: list[EntanglementEvent]
    files: tuple[Path, ...] = ()

    def max_pinch(self, qubit: int) -> float:
        return max(m.pinch_distance for m in self.metrics[qubit])

    def mean_form_factor(self, qubit: int) -> float:
        return float(np.mean([m.form_factor for m in self.metrics[qubit]]))


def execute(config: RunConfig) -> RunResult:
    """Run the configured simulation and analysis without touching disk."""
    parts = config.validate()
    if config.mode == "single":
        states = dynamics.run_single(parts.init1, parts.profile1, parts.grid)
        conc = None
    else:
        states = dynamics.run_coupled(parts.init1, parts.init2,
                                      parts.profile1, parts.profile2,
                                      parts.grid, parts.interaction)
        conc = analysis.concurrence(np.stack([s.rho for s in states]))
    trace = measurement.build_trace(states, parts.profiles, parts.shots,
                                    concurrence=conc)
    metrics = tuple([analysis.loop_metrics(loop)
                     for loop in analysis.split_loops(trace, parts.grid, qubit=q)]
                    for q in range(len(trace.qubits)))
    events = (analysis.entanglement_events(zip(trace.t, conc))
              if conc is not None else [])
    return RunResult(config, trace, metrics, events)


def run(config: RunConfig, out_dir) -> RunResult:
    """Execute a run and write its artifacts under ``out_dir``."""
    result = execute(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = [out / "trace.csv"]
    _write_text(files[-1], trace_csv(result.trace))
    coupled = len(result.trace.qubits) == 2
    for q, q_metrics in enumerate(result.metrics):
        name = f"metrics_q{q + 1}.csv" if coupled else "metrics.csv"
        files.append(out / name)
        _write_text(files[-1], metrics_csv(q_metrics))
    files += _write_plots(result, out)
    return replace(result, files=tuple(files))


@dataclass(frozen=True)
class ScanRow:
    delta: float
    mean_f: tuple[float, ...]
    pinch_pass: tuple[bool, ...]
    deaths: int
    births: int


def delta_scan(base: RunConfig, deltas=DEFAULT_SCAN_DELTAS, out_dir=None,
               pinch_tol: float = DEFAULT_PINCH_TOL) -> list[ScanRow]:
    """Run a coupled config once per coupling strength and summarize.

    Pinch pass/fail compares the worst per-period pinch distance against
    ``pinch_tol``; death/birth counts come from the concurrence series.
    Writes per-delta run directories plus scan_summary.csv when ``out_dir``
    is given.
    """
    if base.mode != "coupled":
        raise ConfigError("delta_scan needs a coupled configuration")
    rows = []
    out = Path(out_dir) if out_dir is not None else None
    for d in deltas:
        cfg = apply_overrides(base, delta=float(d))
        if out is not None:
            result = run(cfg, out / f"delta_{d:.4f}")
        else:
            result = execute(cfg)
        kinds = [e.kind for e in result.events]
        rows.append(ScanRow(
            delta=float(d),
            mean_f=tuple(result.mean_form_factor(q) for q in range(2)),
            pinch_pass=tuple(result.max_pinch(q) <= pinch_tol for q in range(2)),
            deaths=kinds.count("death"),
            births=kinds.count("birth"),
        ))
    if out is not None:
        _write_text(out / "scan_summary.csv", scan_csv(rows))
    return rows


def _num(x: float) -> str:
    return f"{x:.12g}"


def trace_csv(trace: ObservableTrace) -> str:
    """Trace CSV; the second qubit's columns carry a '2' suffix."""
    coupled = len(trace.qubits) == 2
    header = ["t", "sx_I", "sy_I", "sx_S", "sy_S", "gamma", "V", "I"]
    if coupled:
        header += ["sx2_I", "sy2_I", "sx2_S", "sy2_S", "gamma2", "V2", "I2",
                   "concurrence"]
    lines = [",".join(header)]
    for i, t in enumerate(trace.t):
        row = [t]
        for q in trace.qubits:
            row += [q.sx_i[i], q.sy_i[i], q.sx_s[i], q.sy_s[i], q.gamma[i],
                    q.voltage[i], q.current[i]]
        if coupled:
            row.append(trace.concurrence[i] if trace.concurrence is not None else 0.0)
        lines.append(",".join(_num(v) for v in row))
    return "\n".join(lines) + "\n"


def metrics_csv(metrics: list[LoopMetrics]) -> str:
    lines = ["period,S,P,F,pinch_distance"]
    for k, m in enumerate(metrics):
        lines.append(",".join([str(k), _num(m.area), _num(m.perimeter),
                               _num(m.form_factor), _num(m.pinch_distance)]))
    return "\n".join(lines) + "\n"


def scan_csv(rows: list[ScanRow]) -> str:
    lines = ["delta,mean_F_q1,mean_F_q2,pinch_pass_q1,pinch_pass_q2,esd_count,esb_count"]
    for r in rows:
        lines.append(",".join([_num(r.delta), _num(r.mean_f[0]), _num(r.mean_f[1]),
                               str(int(r.pinch_pass[0])), str(int(r.pinch_pass[1])),
                               str(r.deaths), str(r.births)]))
    return "\n".join(lines) + "\n"


def summary_text(result: RunResult) -> str:
    cfg = result.config
    lines = [f"run {cfg.name}: {cfg.mode}, {cfg.shots_mode} mode, "
             f"{cfg.periods} periods x {cfg.steps_per_period} steps"]
    for q, q_metrics in enumerate(result.metrics):
        pinches = " ".join(f"{m.pinch_distance:.2e}" for m in q_metrics)
        forms = " ".join(f"{m.form_factor:.3f}" for m in q_metrics)
        lines.append(f"  qubit {q + 1} pinch distance per period: {pinches}")
        lines.append(f"  qubit {q + 1} form factor per period:    {forms}")
    if len(result.trace.qubits) == 2:
        if result.events:
            ev = ", ".join(f"{e.kind}@t={e.time:.2f}" for e in result.events)
        else:
            ev = "(none)"
        lines.append(f"  entanglement events: {ev}")
    if result.files:
        lines.append("  wrote: " + " ".join(str(p) for p in result.files))
    return "\n".join(lines)


def _normalized_vi(result: RunResult, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    q = result.trace.qubits[qubit]
    v = np.asarray(q.voltage)
    i = np.asarray(q.current)
    if result.config.plot_normalization == "initial":
        v_scale = abs(v[0]) or 1.0
        i_scale = abs(i[0]) or 1.0
    else:
        v_scale = np.abs(v).max() or 1.0
        i_scale = np.abs(i).max() or 1.0
    return v / v_scale, i / i_scale


def _write_plots(result: RunResult, out: Path) -> list[Path]:
    files = []
    t = result.trace.t
    coupled = len(result.trace.qubits) == 2
    for q in range(len(result.trace.qubits)):
        suffix = f"_q{q + 1}" if coupled else ""
        v, i = _normalized_vi(result, q)
        ts_path = out / f"timeseries{suffix}.svg"
        _write_text(ts_path, svgplot.line_plot(
            [svgplot.Series(t, v, "V (normalized)"),
             svgplot.Series(t, i, "I (normalized)")],
            title=f"{result.config.name}: memristive variables, qubit {q + 1}",
            xlabel="t", ylabel="normalized value"))
        files.append(ts_path)
        iv_path = out / f"iv{suffix}.svg"
        _write_text(iv_path, svgplot.line_plot(
            [svgplot.Series(v, i, "I-V")],
            title=f"{result.config.name}: I-V curve, qubit {q + 1}",
            xlabel="V (normalized)", ylabel="I (normalized)",
            markers=[svgplot.Marker(float(v[0]), float(i[0]), "#2ca02c", "start"),
                     svgplot.Marker(0.0, 0.0, "#000000", "origin")]))
        files.append(iv_path)
    if coupled and result.trace.concurrence is not None:
        grid_steps = result.config.steps_per_period
        period_t = [t[k * grid_steps + grid_steps // 2]
                    for k in range(len(result.metrics[0]))]
        series = [svgplot.Series(t, result.trace.concurrence, "concurrence")]
        for q in range(2):
            series.append(svgplot.Series(
                np.asarray(period_t),
                np.array([m.form_factor for m in result.metrics[q]]),
                f"form factor q{q + 1}"))
        c_path = out / "concurrence.svg"
        _write_text(c_path, svgplot.line_plot(
            series, title=f"{result.config.name}: concurrence and form factor",
            xlabel="t", ylabel="value"))
        files.append(c_path)
    return files


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
