"""Run orchestration: dynamics -> measurement -> analysis -> files.

A run writes one trace CSV, one metrics CSV per qubit, and SVG plots into its
output directory, then reports a text summary. Every CSV goes through one
table writer, ``_table``, which prints each value, counts and flags included,
as ``%.12g``. ``delta_scan`` repeats a coupled run across coupling strengths,
stepping every strength in one `dynamics.run_coupled` call, and summarizes
pinch survival and entanglement events per point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, dynamics, measurement, svgplot
from .analysis import EntanglementEvent, LoopMetrics
from .config import NAME_MAX_BYTES, RunComponents, RunConfig
from .errors import ConfigError
from .measurement import ObservableTrace

# a qubit's loop is pinched when its worst per-period pinch distance, on
# normalized loops, is at most this
PINCH_TOL = 3e-3
DEFAULT_SCAN_DELTAS = tuple(np.linspace(0.1, 1.0, 10).tolist())


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
        return _analyse(config, parts, np.stack([s.rho for s in states]))
    return next(_coupled_results([config], [parts]))


def run(config: RunConfig, out_dir) -> RunResult:
    """Execute a run and write its artifacts under ``out_dir``."""
    return _write(execute(config), Path(out_dir))


def _coupled_results(configs: list[RunConfig], parts: list[RunComponents]):
    """Yield the result of each coupled config, in order.

    The configs may differ only in their coupling, so one
    `dynamics.run_coupled` call steps them all; concurrence and the
    analysis run per trajectory, on its read-only (n_steps+1, 4, 4) slice
    of the stepped array. `run_coupled` has validated every slice (its
    first state is the product of two validated pure states), so the
    concurrence skips `analysis.concurrence`'s second validation.
    """
    if not parts:
        return
    first = parts[0]
    rhos = dynamics.run_coupled(first.init1, first.init2, first.profile1,
                                first.profile2, first.grid,
                                [p.interaction for p in parts])
    for config, p, trajectory in zip(configs, parts, rhos):
        yield _analyse(config, p, trajectory, analysis._wootters_concurrence(trajectory))


def _analyse(config: RunConfig, parts: RunComponents, states: np.ndarray,
             conc: np.ndarray | None = None) -> RunResult:
    """Observables, loop metrics and entanglement events of one stepped
    trajectory, given as its (n_steps+1, d, d) state stack on the grid of
    ``parts``; ``conc`` is its concurrence series, None for a single run."""
    times = parts.grid.times(parts.profile1.omega)
    trace = measurement.build_trace(states, parts.profiles, times, parts.shots,
                                    concurrence=conc)
    metrics = tuple(analysis.loop_metrics(analysis.split_loops(trace, parts.grid, qubit=q))
                    for q in range(len(trace.qubits)))
    events = analysis.entanglement_events(trace.t, conc) if conc is not None else []
    return RunResult(config, trace, metrics, events)


def _write(result: RunResult, out_dir: Path) -> RunResult:
    """Write a result's CSVs and plots under ``out_dir``; the result, with its files."""
    coupled = len(result.trace.qubits) == 2
    texts = {"trace.csv": trace_csv(result.trace)}
    for q, q_metrics in enumerate(result.metrics):
        texts[f"metrics_q{q + 1}.csv" if coupled else "metrics.csv"] = metrics_csv(q_metrics)
    texts.update(_plots(result))
    files = tuple(out_dir / name for name in texts)
    for path, text in zip(files, texts.values()):
        _write_text(path, text)
    return replace(result, files=files)


@dataclass(frozen=True)
class ScanRow:
    delta: float
    mean_f: tuple[float, ...]
    pinch_pass: tuple[bool, ...]
    deaths: int
    births: int


def delta_scan(base: RunConfig, deltas=DEFAULT_SCAN_DELTAS, out_dir=None) -> list[ScanRow]:
    """Run a coupled config once per coupling strength and summarize.

    Every delta's config is validated before any stepping or write, with
    the config layer's type rule (a real number, not a bool or None), so an
    invalid delta raises ConfigError with nothing on disk. All deltas are
    then stepped together by one `dynamics.run_coupled` call (one kappa
    schedule, one coefficient table, one gate per delta), and each delta's
    trajectory is analysed, and written if asked, as `run` would. The scan
    holds every delta's states at once, about 0.3 MB per delta at fig9's
    1200 steps. Pinch pass/fail compares the worst per-period pinch
    distance against `PINCH_TOL`; each period's distance is in the run's
    metrics CSVs and `RunResult.max_pinch` for any other threshold.
    Death/birth counts come from the concurrence series. Writes per-delta
    run directories plus scan_summary.csv when ``out_dir`` is given; deltas
    whose directory names (4 decimals) collide, or run past
    `config.NAME_MAX_BYTES`, are then rejected first.
    """
    if base.mode != "coupled":
        raise ConfigError("delta_scan needs a coupled configuration")
    configs = [replace(base, delta=d) for d in deltas]
    parts = [cfg.validate() for cfg in configs]
    deltas = [float(cfg.delta) for cfg in configs]
    dirs = [f"delta_{d:.4f}" for d in deltas]
    out = Path(out_dir) if out_dir is not None else None
    clash = [d for d, name in zip(deltas, dirs) if dirs.count(name) > 1]
    if out is not None and clash:
        raise ConfigError(f"deltas {clash} share run directory names at 4 decimals")
    long = [d for d, name in zip(deltas, dirs) if len(name) > NAME_MAX_BYTES]
    if out is not None and long:
        raise ConfigError(f"delta {long[0]!r} gives a run directory name of more than "
                          f"the {NAME_MAX_BYTES} bytes a run name may hold")
    rows = []
    for d, name, result in zip(deltas, dirs, _coupled_results(configs, parts)):
        if out is not None:
            result = _write(result, out / name)
        kinds = [e.kind for e in result.events]
        rows.append(ScanRow(
            delta=d,
            mean_f=tuple(result.mean_form_factor(q) for q in range(2)),
            pinch_pass=tuple(result.max_pinch(q) <= PINCH_TOL for q in range(2)),
            deaths=kinds.count("death"),
            births=kinds.count("birth"),
        ))
    if out is not None:
        _write_text(out / "scan_summary.csv", scan_csv(rows))
    return rows


def _table(header: list[str], rows) -> str:
    """CSV text: the header line, then one line per row, every value as %.12g.

    The body is one ``%`` over the row format repeated per row and the
    flattened values.
    """
    values = np.asarray(rows, float)
    line = ",".join(["%.12g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + (line * len(values)) % tuple(values.ravel().tolist())


def trace_csv(trace: ObservableTrace) -> str:
    """Trace CSV; the second qubit's columns carry a '2' suffix."""
    header, cols = ["t"], [trace.t]
    for n, q in enumerate(trace.qubits):
        s = "2" if n else ""
        header += [f"sx{s}_I", f"sy{s}_I", f"sx{s}_S", f"sy{s}_S", f"gamma{s}", f"V{s}", f"I{s}"]
        cols += [q.sx_i, q.sy_i, q.sx_s, q.sy_s, q.gamma, q.voltage, q.current]
    if len(trace.qubits) == 2:
        header.append("concurrence")
        cols.append(np.zeros(len(trace.t)) if trace.concurrence is None else trace.concurrence)
    return _table(header, np.column_stack(cols))


def metrics_csv(metrics: list[LoopMetrics]) -> str:
    return _table(["period", "S", "P", "F", "pinch_distance"],
                  [(k, m.area, m.perimeter, m.form_factor, m.pinch_distance)
                   for k, m in enumerate(metrics)])


def scan_csv(rows: list[ScanRow]) -> str:
    return _table(["delta", "mean_F_q1", "mean_F_q2", "pinch_pass_q1", "pinch_pass_q2",
                   "esd_count", "esb_count"],
                  [(r.delta, *r.mean_f, *r.pinch_pass, r.deaths, r.births) for r in rows])


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


def _normalized(x, how: str) -> np.ndarray:
    x = np.asarray(x)
    scale = abs(x[0]) if how == "initial" else np.abs(x).max()
    return x / (scale or 1.0)


def _plots(result: RunResult) -> dict[str, str]:
    """SVG text per file name: time series and I-V per qubit, concurrence if coupled."""
    plots = {}
    name, t = result.config.name, result.trace.t
    coupled = len(result.trace.qubits) == 2
    for q, qs in enumerate(result.trace.qubits):
        suffix = f"_q{q + 1}" if coupled else ""
        v = _normalized(qs.voltage, result.config.plot_normalization)
        i = _normalized(qs.current, result.config.plot_normalization)
        plots[f"timeseries{suffix}.svg"] = svgplot.line_plot(
            [svgplot.Series(t, v, "V (normalized)"),
             svgplot.Series(t, i, "I (normalized)")],
            title=f"{name}: memristive variables, qubit {q + 1}",
            xlabel="t", ylabel="normalized value")
        plots[f"iv{suffix}.svg"] = svgplot.line_plot(
            [svgplot.Series(v, i, "I-V")],
            title=f"{name}: I-V curve, qubit {q + 1}",
            xlabel="V (normalized)", ylabel="I (normalized)",
            markers=[svgplot.Marker(float(v[0]), float(i[0]), "#2ca02c", "start"),
                     svgplot.Marker(0.0, 0.0, "#000000", "origin")])
    if coupled and result.trace.concurrence is not None:
        steps = result.config.steps_per_period
        period_t = t[steps // 2::steps][:len(result.metrics[0])]
        series = [svgplot.Series(t, result.trace.concurrence, "concurrence")]
        series += [svgplot.Series(period_t, np.array([m.form_factor for m in result.metrics[q]]),
                                  f"form factor q{q + 1}") for q in range(2)]
        plots["concurrence.svg"] = svgplot.line_plot(
            series, title=f"{name}: concurrence and form factor", xlabel="t", ylabel="value")
    return plots


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
