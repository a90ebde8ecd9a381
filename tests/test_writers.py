"""The CSV and SVG writers against per-value reference formatting.

The references format one value at a time, as ``f"{x:.12g}"`` for CSV fields
(``str(int)`` for periods, pass flags and counts) and ``f"{px:.2f},{py:.2f}"``
for polyline points, so any drift of the whole-table writers shows here.
"""

import math

import numpy as np
import pytest

from qmemristor import dynamics, runner, svgplot
from qmemristor.analysis import LoopMetrics
from qmemristor.cli import main
from qmemristor.config import apply_overrides
from qmemristor.errors import ConfigError
from qmemristor.measurement import ObservableTrace, QubitSeries
from qmemristor.presets import preset
from qmemristor.runner import ScanRow

AWKWARD = np.array([-0.0, math.inf, -math.inf, math.nan, 5e-324,
                    1.7976931348623157e308, 1e16, 0.1, -1 / 3, 123456789012.5])
SINGLE_HEADER = "t,sx_I,sy_I,sx_S,sy_S,gamma,V,I"
COUPLED_HEADER = (SINGLE_HEADER + ",sx2_I,sy2_I,sx2_S,sy2_S,gamma2,V2,I2,concurrence")


def reference_table(header, rows):
    lines = [header] + [",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row)
                        for row in rows]
    return "\n".join(lines) + "\n"


def awkward_series(shift):
    cols = [np.roll(AWKWARD, shift + k) for k in range(7)]
    return QubitSeries(*cols), cols


class TestCsvWriters:
    def test_single_trace(self):
        q, cols = awkward_series(1)
        trace = ObservableTrace(t=AWKWARD, qubits=(q,))
        rows = zip(AWKWARD, *cols)
        assert runner.trace_csv(trace) == reference_table(SINGLE_HEADER, rows)

    def test_coupled_trace(self):
        q1, cols1 = awkward_series(2)
        q2, cols2 = awkward_series(5)
        conc = np.roll(AWKWARD, 3)
        trace = ObservableTrace(t=AWKWARD, qubits=(q1, q2), concurrence=conc)
        rows = zip(AWKWARD, *cols1, *cols2, conc)
        assert runner.trace_csv(trace) == reference_table(COUPLED_HEADER, rows)

    def test_metrics(self):
        metrics = [LoopMetrics(*np.roll(AWKWARD, k)[:4]) for k in range(len(AWKWARD))]
        rows = [(str(k), m.area, m.perimeter, m.form_factor, m.pinch_distance)
                for k, m in enumerate(metrics)]
        assert runner.metrics_csv(metrics) == reference_table(
            "period,S,P,F,pinch_distance", rows)

    def test_scan(self):
        scan = [ScanRow(float(d), (float(f1), float(f2)), (ok1, ok2), deaths, births)
                for d, f1, f2, ok1, ok2, deaths, births in zip(
                    AWKWARD, np.roll(AWKWARD, 1), np.roll(AWKWARD, 2),
                    [True, False] * 5, [False, True, True, False, False] * 2,
                    [0, 1, 7, 12, 999, 0, 3, 10 ** 6, 2, 5], range(10))]
        rows = [(f"{r.delta:.12g}", r.mean_f[0], r.mean_f[1],
                 str(int(r.pinch_pass[0])), str(int(r.pinch_pass[1])),
                 str(r.deaths), str(r.births)) for r in scan]
        header = "delta,mean_F_q1,mean_F_q2,pinch_pass_q1,pinch_pass_q2,esd_count,esb_count"
        assert runner.scan_csv(scan) == reference_table(header, rows)

    def test_empty_scan_is_the_header_line(self):
        assert runner.scan_csv([]) == ("delta,mean_F_q1,mean_F_q2,pinch_pass_q1,"
                                       "pinch_pass_q2,esd_count,esb_count\n")


class TestPolyline:
    def test_points_match_per_point_reference(self):
        x = np.array([-0.0, 0.5, -1.25, 3.0, 1e-300, 2.005])
        y = np.array([0.0, -0.0, 2.0, -3.5, 0.125, -1e-300])
        x2, y2 = x[::-1] * 0.5, -0.0 * y
        svg = svgplot.line_plot([svgplot.Series(x, y, "a"), svgplot.Series(x2, y2, "b")],
                                title="t", xlabel="x", ylabel="y")
        x_lo, x_hi = svgplot._padded(min(x.min(), x2.min()), max(x.max(), x2.max()))
        y_lo, y_hi = svgplot._padded(min(y.min(), y2.min()), max(y.max(), y2.max()))
        width = svgplot._WIDTH - 2 * svgplot._MARGIN
        height = svgplot._HEIGHT - 2 * svgplot._MARGIN
        for xs, ys in ((x, y), (x2, y2)):
            pts = []
            for a, b in zip(xs, ys):
                px = svgplot._MARGIN + (a - x_lo) / (x_hi - x_lo) * width
                py = svgplot._HEIGHT - svgplot._MARGIN - (b - y_lo) / (y_hi - y_lo) * height
                pts.append(f"{px:.2f},{py:.2f}")
            assert f'<polyline points="{" ".join(pts)}"' in svg


class TestScanDirectoryCollisions:
    def test_colliding_deltas_are_rejected_before_any_run(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(runner, "execute", runs.append)
        out = tmp_path / "scan"
        with pytest.raises(ConfigError, match=r"0\.30001, 0\.30004"):
            runner.delta_scan(preset("fig9"), (0.30001, 0.30004), out)
        assert runs == []
        assert not out.exists()

    def test_cli_exits_2_and_writes_nothing(self, tmp_path, capsys):
        rc = main(["scan", "--preset", "fig9", "--delta", "0.2,0.2", "--out", str(tmp_path)])
        assert rc == 2
        assert "0.2, 0.2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repeated_deltas_without_files_still_run(self):
        cfg = apply_overrides(preset("fig7"), periods=2, steps_per_period=12)
        rows = runner.delta_scan(cfg, (0.2, 0.2))
        assert rows[0] == rows[1]
        assert rows == per_delta_scan(cfg, (0.2, 0.2), None)


def per_delta_scan(base, deltas, out, pinch_tol=runner.DEFAULT_PINCH_TOL):
    """A scan as one `run` (or `execute`) per delta, then the summary."""
    rows = []
    for d in deltas:
        cfg = apply_overrides(base, delta=d)
        result = (runner.run(cfg, out / f"delta_{d:.4f}") if out is not None
                  else runner.execute(cfg))
        kinds = [e.kind for e in result.events]
        rows.append(ScanRow(d, tuple(result.mean_form_factor(q) for q in range(2)),
                            tuple(result.max_pinch(q) <= pinch_tol for q in range(2)),
                            kinds.count("death"), kinds.count("birth")))
    if out is not None:
        (out / "scan_summary.csv").write_text(runner.scan_csv(rows), encoding="utf-8")
    return rows


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestBatchedScanEqualsPerDeltaRuns:
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("name", ["fig7", "fig9"])
    def test_rows_and_files(self, tmp_path, name, mode):
        base = apply_overrides(preset(name), shots_mode=mode, seed=11)
        deltas = (0.15, 0.6, 1.0)
        rows = runner.delta_scan(base, deltas, tmp_path / "batched")
        assert rows == per_delta_scan(base, deltas, tmp_path / "alone")
        batched = tree_bytes(tmp_path / "batched")
        assert len(batched) == 1 + 3 * 8  # 3 CSVs and 5 SVGs per delta
        assert batched == tree_bytes(tmp_path / "alone")

    def test_rows_without_files(self):
        base = apply_overrides(preset("fig9"), periods=2)
        deltas = (0.9, 0.1, 0.5, 0.1)
        assert runner.delta_scan(base, deltas) == per_delta_scan(base, deltas, None)

    def test_empty_scan_writes_the_header_line(self, tmp_path):
        assert runner.delta_scan(preset("fig9"), (), tmp_path) == []
        assert tree_bytes(tmp_path) == {"scan_summary.csv": runner.scan_csv([]).encode()}


class TestInvalidScanDelta:
    # a delta takes the config layer's type rule: no string, bool or None is
    # turned into a number or dropped in favour of the base delta
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "0.2", True, None])
    def test_rejected_before_any_stepping_or_write(self, tmp_path, monkeypatch, bad):
        steps = []
        monkeypatch.setattr(dynamics, "run_coupled",
                            lambda *args: steps.append(args))
        out = tmp_path / "scan"
        with pytest.raises(ConfigError, match="delta must be (finite|a real number)"):
            runner.delta_scan(preset("fig9"), (0.2, bad), out)
        assert steps == []
        assert not out.exists()

    def test_cli_exits_2_and_writes_nothing(self, tmp_path, capsys):
        rc = main(["scan", "--preset", "fig9", "--delta", "0.2,nan", "--out", str(tmp_path)])
        assert rc == 2
        assert "delta must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestInvalidPinchTol:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, "0.1", True, None])
    def test_rejected_before_any_stepping_or_write(self, tmp_path, monkeypatch, bad):
        steps = []
        monkeypatch.setattr(dynamics, "run_coupled", lambda *args: steps.append(args))
        out = tmp_path / "scan"
        with pytest.raises(ConfigError, match="pinch_tol"):
            runner.delta_scan(preset("fig9"), (0.2,), out, pinch_tol=bad)
        assert steps == []
        assert not out.exists()

    def test_zero_is_accepted(self):
        rows = runner.delta_scan(apply_overrides(preset("fig9"), periods=2), (0.0,),
                                 pinch_tol=0.0)
        assert len(rows) == 1

    @pytest.mark.parametrize("bad", ["nan", "-1"])
    def test_cli_exits_2_and_writes_nothing(self, tmp_path, capsys, bad):
        rc = main(["scan", "--preset", "fig9", "--delta", "0.2", "--pinch-tol", bad,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "pinch_tol" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
