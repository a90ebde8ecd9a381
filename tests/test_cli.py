import math
import xml.etree.ElementTree as ET

import pytest

from qmemristor import runner
from qmemristor.cli import main
from qmemristor.config import RunConfig
from qmemristor.errors import NumericsError
from qmemristor.presets import preset

from conftest import OLD_FIG9_TEXT, deadline

SVG_NS = "{http://www.w3.org/2000/svg}"


def fast_coupled(**kw):
    base = preset("fig7")
    fields = dict(periods=2, steps_per_period=12)
    fields.update(kw)
    from qmemristor.config import apply_overrides
    return apply_overrides(base, **fields)


class TestRunVerb:
    def test_exact_run_writes_artifacts(self, tmp_path, capsys):
        rc = main(["run", "--preset", "fig4", "--exact", "--periods", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        out_dir = tmp_path / "fig4"
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "iv.svg").exists()
        assert "pinch distance" in capsys.readouterr().out

    def test_trace_csv_schema(self, tmp_path):
        main(["run", "--preset", "fig4", "--exact", "--periods", "2",
              "--out", str(tmp_path)])
        header = (tmp_path / "fig4" / "trace.csv").read_text().splitlines()[0]
        assert header == "t,sx_I,sy_I,sx_S,sy_S,gamma,V,I"

    def test_coupled_csv_schema(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(fast_coupled().to_text())
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "fig7" / "trace.csv").read_text().splitlines()
        assert lines[0] == ("t,sx_I,sy_I,sx_S,sy_S,gamma,V,I,"
                            "sx2_I,sy2_I,sx2_S,sy2_S,gamma2,V2,I2,concurrence")
        assert (tmp_path / "fig7" / "metrics_q1.csv").exists()
        assert (tmp_path / "fig7" / "metrics_q2.csv").exists()
        header = (tmp_path / "fig7" / "metrics_q1.csv").read_text().splitlines()[0]
        assert header == "period,S,P,F,pinch_distance"

    def test_sampled_runs_are_byte_identical(self, tmp_path):
        for sub in ("one", "two"):
            rc = main(["run", "--preset", "fig4", "--sampled", "--periods", "2",
                       "--seed", "11", "--out", str(tmp_path / sub)])
            assert rc == 0
        a = (tmp_path / "one" / "fig4" / "trace.csv").read_bytes()
        b = (tmp_path / "two" / "fig4" / "trace.csv").read_bytes()
        assert a == b

    def test_different_seeds_differ(self, tmp_path):
        for seed, sub in ((11, "one"), (12, "two")):
            main(["run", "--preset", "fig4", "--sampled", "--periods", "2",
                  "--seed", str(seed), "--out", str(tmp_path / sub)])
        a = (tmp_path / "one" / "fig4" / "trace.csv").read_bytes()
        b = (tmp_path / "two" / "fig4" / "trace.csv").read_bytes()
        assert a != b

    def test_twelve_significant_digits(self, tmp_path):
        main(["run", "--preset", "fig4", "--exact", "--periods", "2",
              "--out", str(tmp_path)])
        row = (tmp_path / "fig4" / "trace.csv").read_text().splitlines()[5]
        cells = row.split(",")
        assert any(len(c.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 11
                   for c in cells)


class TestSvgOutputs:
    def test_valid_xml_and_polyline_counts(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(fast_coupled().to_text())
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        expectations = {
            "timeseries_q1.svg": 2,   # V and I
            "iv_q1.svg": 1,
            "concurrence.svg": 3,     # concurrence + form factor per qubit
        }
        for name, count in expectations.items():
            root = ET.parse(tmp_path / "fig7" / name).getroot()
            assert root.tag == f"{SVG_NS}svg"
            assert len(root.findall(f"{SVG_NS}polyline")) == count


class TestScanVerb:
    def test_zero_delta_point(self):
        # an uncoupled scan point: both qubits keep their pinch, the pair
        # never entangles, and no death/birth events fire
        import numpy as np
        from qmemristor.runner import delta_scan, execute
        from qmemristor.config import apply_overrides
        rows = delta_scan(preset("fig7"), deltas=[0.0])
        assert rows[0].pinch_pass == (True, True)
        assert rows[0].deaths == rows[0].births == 0
        trace = execute(apply_overrides(preset("fig7"), delta=0.0)).trace
        assert np.abs(trace.concurrence).max() <= 1e-10

    def test_scan_writes_summary(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(fast_coupled().to_text())
        rc = main(["scan", "--config", str(cfg_path), "--delta", "0.0,0.2",
                   "--out", str(tmp_path)])
        assert rc == 0
        summary = tmp_path / "fig7_scan" / "scan_summary.csv"
        lines = summary.read_text().splitlines()
        assert lines[0] == ("delta,mean_F_q1,mean_F_q2,pinch_pass_q1,"
                            "pinch_pass_q2,esd_count,esb_count")
        assert len(lines) == 3
        assert (tmp_path / "fig7_scan" / "delta_0.2000" / "trace.csv").exists()

    def test_scan_rejects_single_mode(self, tmp_path):
        rc = main(["scan", "--preset", "fig4", "--out", str(tmp_path)])
        assert rc == 2

    def test_scan_rejects_bad_delta_list(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(fast_coupled().to_text())
        rc = main(["scan", "--config", str(cfg_path), "--delta", "0.1;0.2",
                   "--out", str(tmp_path)])
        assert rc == 2


class TestExportVerb:
    def test_writes_qasm(self, tmp_path):
        rc = main(["export-qasm", "--preset", "fig4", "--axis", "y",
                   "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "fig4_y.qasm").read_text()
        assert text.startswith("OPENQASM 2.0;")

    def test_cap_gives_config_exit(self, tmp_path):
        rc = main(["export-qasm", "--preset", "fig7", "--out", str(tmp_path)])
        assert rc == 2


class TestExitCodes:
    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mode = 'single'\nwhatever = 3\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_repeated_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mode = 'single'\na1 = 0.3\na1 = 0.7\ngamma0_1 = 0.1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "key 'a1' repeats line 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_convention_keys(self, tmp_path, capsys):
        old = tmp_path / "fig9.cfg"
        old.write_text(OLD_FIG9_TEXT)
        assert main(["run", "--config", str(old), "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'control'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_field_value(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mode = 'single'\na1 = 9.0\ngamma0_1 = 0.1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_shots_past_the_binomial_range(self, tmp_path, capsys):
        # the sampled fig4 run draws binomial counts, which take a signed
        # 64-bit number of shots
        rc = main(["run", "--preset", "fig4", "--periods", "1",
                   "--shots", str(2 ** 63), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "shots" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_io_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        rc = main(["run", "--preset", "fig4", "--exact", "--periods", "2",
                   "--out", str(blocker)])
        assert rc == 4

    @pytest.mark.parametrize("fields, code", [
        (dict(gamma0_1=math.inf), 2),
        (dict(omega=math.inf), 2),
        (dict(gamma0_1=1e308), 3),
        (dict(omega=1e300), 3),
    ], ids=["gamma0_inf", "omega_inf", "gamma0_1e308", "omega_1e300"])
    def test_extreme_rates_fail_fast(self, tmp_path, fields, code):
        # a1 = pi/4: with the default a1 = 0 a single run is rejected before
        # the rates are looked at
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(RunConfig(a1=math.pi / 4, **fields).to_text())
        with deadline(1.0):
            rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == code

    def test_default_single_config_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("mode = 'single'\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "a1" in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, monkeypatch):
        def boom(config, out_dir):
            raise NumericsError("synthetic instability")
        monkeypatch.setattr(runner, "run", boom)
        import qmemristor.cli as cli_module
        monkeypatch.setattr(cli_module.runner, "run", boom)
        rc = main(["run", "--preset", "fig4", "--out", str(tmp_path)])
        assert rc == 3

    def test_bare_value_error_is_not_a_numerical_failure(self, tmp_path, monkeypatch):
        def bug(config, out_dir):
            raise ValueError("a programming error")
        monkeypatch.setattr(runner, "run", bug)
        with pytest.raises(ValueError, match="a programming error"):
            main(["run", "--preset", "fig4", "--out", str(tmp_path)])


class TestPresetsVerb:
    def test_lists_catalog(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1a", "fig4", "fig7", "appx_pswap"):
            assert name in out


class TestRoundTripThroughSerialization:
    def test_preset_file_run_matches_preset_run(self, tmp_path):
        cfg = fast_coupled(shots_mode="sampled", seed=3)
        direct = runner.run(cfg, tmp_path / "direct")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfg.to_text())
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "via_file")])
        assert rc == 0
        a = (tmp_path / "direct" / "trace.csv").read_bytes()
        b = (tmp_path / "via_file" / "fig7" / "trace.csv").read_bytes()
        assert a == b
