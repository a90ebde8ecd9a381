"""The program's layers as the traced run sees them, and their metrics.

Each layer is named after the module whose public functions it wraps. Work
counts come from each call's arguments or result, never from the program's
internals, so a later change to how a layer does its work leaves the count's
meaning alone.
"""

from __future__ import annotations

from tracer import Target, Tracer


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _grid_steps(index, memristors):
    def work(args, kwargs, _result):
        return _arg(args, kwargs, index, "grid").n_steps * memristors
    return work


def _rk4_steps(args, kwargs, _result):
    t_end = _arg(args, kwargs, 2, "t_end")
    dt = kwargs.get("dt_ode", args[3] if len(args) > 3 else 1e-3)
    n_full, rem = divmod(t_end, dt)
    return int(n_full) + (rem > 1e-12 * max(1.0, t_end))


def _bloch_points(args, kwargs, _result):
    states = _arg(args, kwargs, 0, "states")
    return len(states) * len(_arg(args, kwargs, 1, "profiles")) * 2


def _count_result(_args, _kwargs, result):
    return len(result)


def _text_bytes(args, kwargs, _result):
    return len(_arg(args, kwargs, 1, "text").encode("utf-8"))


def _nothing(*_):
    return 0


def _t(module, attr, layer, *work):
    return Target(f"qmemristor.{module}", attr, f"{module}.{attr}", layer, *work)


TARGETS = [
    _t("runner", "execute", "runner"),
    _t("runner", "run", "runner"),
    _t("runner", "delta_scan", "runner"),
    _t("dynamics", "kappa_schedule", "kappa", _count_result),
    _t("dynamics", "kappa", "kappa"),
    _t("dynamics", "run_single", "step", _grid_steps(2, 1)),
    _t("dynamics", "run_coupled", "step", _grid_steps(4, 2)),
    _t("ops", "damping_kraus", "ops"),
    _t("ops", "apply_channel", "ops"),
    _t("ops", "collision_step", "ops"),
    _t("ops", "apply_interaction", "ops"),
    _t("linalg", "require_density_matrix", "validate"),
    _t("dynamics", "require_density_matrix", "validate"),
    _t("analysis", "require_density_matrix", "validate"),
    _t("dynamics", "analytic_oracle", "oracle.analytic"),
    _t("dynamics", "lindblad_oracle", "oracle.lindblad", _rk4_steps),
    _t("measurement", "build_trace", "measure", _bloch_points),
    _t("measurement", "sampled_expectation", "measure.sample"),
    _t("analysis", "split_loops", "loops", _count_result),
    _t("analysis", "loop_metrics", "loops", _nothing),
    _t("analysis", "concurrence", "concurrence"),
    _t("analysis", "entanglement_events", "concurrence", _nothing),
    _t("runner", "trace_csv", "output.csv"),
    _t("runner", "metrics_csv", "output.csv"),
    _t("runner", "scan_csv", "output.csv"),
    _t("svgplot", "line_plot", "output.svg"),
    _t("runner", "_write_text", "output.write", _text_bytes),
]

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer.
METRICS = {
    "kappa.calls": ("count", "lower"),
    "kappa.steps": ("count", "lower"),
    "kappa.busy_s": ("s", "lower"),
    "kappa.us_per_step": ("us", "lower"),
    "kappa.interval.calls": ("count", "lower"),
    "kappa.interval.busy_s": ("s", "lower"),
    "oracle.analytic.calls": ("count", "lower"),
    "oracle.analytic.self_s": ("s", "lower"),
    "oracle.lindblad.calls": ("count", "lower"),
    "oracle.lindblad.rk4_steps": ("count", "lower"),
    "oracle.lindblad.busy_s": ("s", "lower"),
    "step.calls": ("count", "lower"),
    "step.steps": ("count", "lower"),
    "step.self_s": ("s", "lower"),
    "step.us_per_step": ("us", "lower"),
    "ops.calls": ("count", "lower"),
    "validate.calls": ("count", "lower"),
    "validate.busy_s": ("s", "lower"),
    "measure.calls": ("count", "lower"),
    "measure.points": ("count", "lower"),
    "measure.self_s": ("s", "lower"),
    "measure.sample.calls": ("count", "lower"),
    "measure.sample.busy_s": ("s", "lower"),
    "loops.count": ("count", "lower"),
    "loops.busy_s": ("s", "lower"),
    "concurrence.calls": ("count", "lower"),
    "concurrence.self_s": ("s", "lower"),
    "output.files": ("count", "lower"),
    "output.bytes": ("B", "lower"),
    "output.csv_s": ("s", "lower"),
    "output.svg_s": ("s", "lower"),
    "output.write_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "trace.pass_jobs": ("count", "higher"),
    "trace.jobs_per_s": ("1/s", "higher"),
    "trace.untraced_jobs_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.count_drift": ("count", "lower"),
}

# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = ("kappa.steps", "step.steps", "validate.calls", "measure.points",
                "measure.sample.calls", "concurrence.calls", "loops.count",
                "output.bytes", "oracle.lindblad.rk4_steps")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    The kappa layer holds two kinds of call. ``kappa_schedule`` integrates
    one grid step per entry and makes ``kappa.*``. A ``kappa`` call outside
    a schedule (the analytic oracle's ``kappa(0, t)``) integrates a whole
    interval and makes ``kappa.interval.*``.
    """
    summary, by_name = tracer.summary(), tracer.summary(by="name")

    def get(layer, key):
        return summary.get(layer, {}).get(key, 0)

    def schedule(key):
        return by_name.get("dynamics.kappa_schedule", {}).get(key, 0)

    def interval(key):
        return by_name.get("dynamics.kappa", {}).get(key, 0)

    def per_step(seconds, steps):
        return 1e6 * seconds / steps if steps else 0.0

    step_self = get("step", "self_s") + get("ops", "self_s")
    return {
        "kappa.calls": schedule("calls"),
        "kappa.steps": schedule("work"),
        "kappa.busy_s": schedule("busy_s"),
        "kappa.us_per_step": per_step(schedule("busy_s"), schedule("work")),
        "kappa.interval.calls": interval("calls"),
        "kappa.interval.busy_s": interval("busy_s"),
        "oracle.analytic.calls": get("oracle.analytic", "calls"),
        "oracle.analytic.self_s": get("oracle.analytic", "self_s"),
        "oracle.lindblad.calls": get("oracle.lindblad", "calls"),
        "oracle.lindblad.rk4_steps": get("oracle.lindblad", "work"),
        "oracle.lindblad.busy_s": get("oracle.lindblad", "busy_s"),
        "step.calls": get("step", "calls"),
        "step.steps": get("step", "work"),
        "step.self_s": step_self,
        "step.us_per_step": per_step(step_self, get("step", "work")),
        "ops.calls": get("ops", "calls"),
        "validate.calls": get("validate", "calls"),
        "validate.busy_s": get("validate", "busy_s"),
        "measure.calls": get("measure", "calls"),
        "measure.points": get("measure", "work"),
        "measure.self_s": get("measure", "self_s"),
        "measure.sample.calls": get("measure.sample", "calls"),
        "measure.sample.busy_s": get("measure.sample", "busy_s"),
        "loops.count": get("loops", "work"),
        "loops.busy_s": get("loops", "busy_s"),
        "concurrence.calls": get("concurrence", "work"),
        "concurrence.self_s": get("concurrence", "self_s"),
        "output.files": get("output.write", "calls"),
        "output.bytes": get("output.write", "work"),
        "output.csv_s": get("output.csv", "busy_s"),
        "output.svg_s": get("output.svg", "busy_s"),
        "output.write_s": get("output.write", "busy_s"),
        "runner.self_s": get("runner", "self_s"),
    }
