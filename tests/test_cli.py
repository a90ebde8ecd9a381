import contextlib
import io
import logging
import math
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemristor import dynamics, qasm, runner
from qmemristor.cli import main
from qmemristor.config import NAME_MAX_BYTES, RunConfig
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
        assert capsys.readouterr().out.startswith("scan fig7: 2 points, pinch tolerance 0.003\n")
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

    def test_pinch_tol_is_not_a_flag(self, tmp_path, capsys):
        # the pinch threshold is runner.PINCH_TOL; argparse rejects the flag
        # before any stepping, and --out is never created
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["scan", "--preset", "fig9", "--delta", "0.2", "--pinch-tol", "0.01",
                  "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --pinch-tol 0.01" in capsys.readouterr().err
        assert not out.exists()


class TestExportVerb:
    def test_writes_qasm(self, tmp_path):
        rc = main(["export-qasm", "--preset", "fig4", "--axis", "y",
                   "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "fig4_y.qasm").read_text()
        assert text.startswith("OPENQASM 2.0;")

    def test_file_bytes_are_the_circuit_text(self, tmp_path):
        # "\n" line ends and UTF-8 on every platform, as the CSV and SVG
        # writers give, in a directory the verb creates
        out = tmp_path / "new" / "dir"
        assert main(["export-qasm", "--preset", "fig4", "--axis", "x", "--out", str(out)]) == 0
        text = qasm.export_circuit(preset("fig4"), "x")
        assert (out / "fig4_x.qasm").read_bytes() == text.encode("utf-8")

    def test_cap_gives_config_exit(self, tmp_path):
        rc = main(["export-qasm", "--preset", "fig7", "--out", str(tmp_path)])
        assert rc == 2


class _Captured(Exception):
    """Raised by a stubbed verb backend with the arguments it was given."""


@pytest.fixture
def captured(monkeypatch):
    """Stub every verb's backend; `seen(argv)` returns the arguments the
    backend got, the selected RunConfig first."""
    def capture(*args, **kwargs):
        raise _Captured(*args)
    for module, name in ((runner, "run"), (runner, "delta_scan"), (qasm, "export_circuit")):
        monkeypatch.setattr(module, name, capture)

    def seen(argv):
        with pytest.raises(_Captured) as info:
            main(argv)
        return info.value.args
    return seen


RUN_VERBS = ("run", "scan", "export-qasm")
# (flags, field, value); fig7 differs from each value, fig4 is sampled
OVERRIDES = [
    (["--shots", "7"], "shots", 7),
    (["--seed", "9"], "seed", 9),
    (["--steps-per-period", "13"], "steps_per_period", 13),
    (["--periods", "3"], "periods", 3),
    (["--delta", "0.25"], "delta", 0.25),
    (["--exact"], "shots_mode", "exact"),
    (["--sampled"], "shots_mode", "sampled"),
]
# scan's --delta is its comma-separated list, not the delta field
OVERRIDE_CASES = [pytest.param(verb, flags, field, value, id=f"{verb} {flags[0]}")
                  for verb in RUN_VERBS for flags, field, value in OVERRIDES
                  if (verb, field) != ("scan", "delta")]


class TestOverrideFlags:
    @pytest.mark.parametrize("verb, flags, field, value", OVERRIDE_CASES)
    def test_flag_sets_its_field_alone(self, captured, tmp_path, verb, flags, field, value):
        base = preset("fig4" if value == "exact" else "fig7")
        assert getattr(base, field) != value
        config = captured([verb, "--preset", base.name, *flags, "--out", str(tmp_path)])[0]
        assert config == replace(base, **{field: value})

    def test_scan_delta_is_the_list_not_the_field(self, captured, tmp_path):
        config, deltas, _ = captured(["scan", "--preset", "fig7", "--delta", "0.3",
                                      "--out", str(tmp_path)])
        assert config == preset("fig7")
        assert tuple(deltas) == (0.3,)

    @pytest.mark.parametrize("verb", RUN_VERBS)
    def test_exact_and_sampled_together_exit_2(self, captured, tmp_path, verb):
        with pytest.raises(SystemExit) as info:
            main([verb, "--preset", "fig7", "--exact", "--sampled", "--out", str(tmp_path)])
        assert info.value.code == 2


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

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"mode = \xff\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "byte offset 7" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["run", "export-qasm"])
    def test_nul_in_name(self, tmp_path, capsys, verb):
        # a file system path cannot hold a NUL, and the name is a path part
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(RunConfig(name="a\x00b", a1=0.5).to_text())
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", RUN_VERBS)
    @pytest.mark.parametrize("name", ["../escaped", "..", ".", "", "a/b"])
    def test_name_outside_out(self, tmp_path, capsys, verb, name):
        # the name is one path part under --out; nothing is written anywhere
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(replace(preset("fig7"), name=name, periods=1).to_text())
        out = tmp_path / "root" / "out"
        assert main([verb, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "name must be one path component" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["run.cfg"]

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

    def test_loop_perimeter_that_squares_to_zero(self, tmp_path, capsys):
        # the qubit has decayed to rest by period 2, whose loop perimeter,
        # 2.7e-163, underflows to 0 when squared for the form factor
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(RunConfig(mode="single", a1=1.0, gamma0_1=133.0, periods=2,
                                      steps_per_period=8, shots_mode="exact").to_text())
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "q")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: loop perimeter 2.709e-163 underflows when squared (period 2)"]

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

    def test_memory_error_is_one_line_and_exit_3(self, tmp_path, monkeypatch, capsys):
        # numpy's message for an array larger than memory; nothing is allocated
        def too_large(config, out_dir):
            raise MemoryError("Unable to allocate 426. PiB for an array with shape "
                              "(60000000000000000,) and data type int64")
        monkeypatch.setattr(runner, "run", too_large)
        rc = main(["run", "--preset", "fig7", "--periods", "1000000000000000",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "out of memory: Unable to allocate 426. PiB for an array with shape "
            "(60000000000000000,) and data type int64"]

    def test_bare_value_error_is_not_a_numerical_failure(self, tmp_path, monkeypatch):
        def bug(config, out_dir):
            raise ValueError("a programming error")
        monkeypatch.setattr(runner, "run", bug)
        with pytest.raises(ValueError, match="a programming error"):
            main(["run", "--preset", "fig4", "--out", str(tmp_path)])


class TestNamesTheFileSystemCannotHold:
    """A file or directory name the file system cannot hold is a config
    error before any stepping, with nothing written."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """The names of the steppers called, each stubbed out."""
        calls = []
        for name in ("run_single", "run_coupled"):
            monkeypatch.setattr(dynamics, name, lambda *args, name=name: calls.append(name))
        return calls

    def assert_rejected(self, argv, tmp_path, capsys, steps):
        before = sorted(tmp_path.rglob("*"))
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert steps == []
        assert sorted(tmp_path.rglob("*")) == before
        return err[0]

    def test_scan_delta(self, tmp_path, capsys, steps):
        # delta_1000...0.0000 is 320 bytes
        err = self.assert_rejected(["scan", "--preset", "fig7", "--delta", "0.1,1e308",
                                    "--periods", "1"], tmp_path, capsys, steps)
        assert err.endswith(f"delta 1e+308 gives a run directory name of more than "
                            f"the {NAME_MAX_BYTES} bytes a run name may hold")

    @pytest.mark.parametrize("verb", RUN_VERBS)
    @pytest.mark.parametrize("name, message", [
        ("n" * 300, f"the name is 300 bytes, more than the {NAME_MAX_BYTES} a run name may hold"),
        ("\u00e9" * 125,
         f"the name is 250 bytes, more than the {NAME_MAX_BYTES} a run name may hold"),
        # to_text writes it as an escape, which the config file keeps
        ("a\ud800b", "the name cannot be encoded as a file name: 'utf-8' codec can't encode "
                     "character '\\ud800' in position 1: surrogates not allowed"),
    ], ids=["300_bytes", "250_bytes_in_125_characters", "lone_surrogate"])
    def test_name(self, tmp_path, capsys, steps, verb, name, message):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(replace(preset("fig7"), name=name, periods=1).to_text())
        err = self.assert_rejected([verb, "--config", str(cfg_path)], tmp_path, capsys, steps)
        assert err.endswith(message)

    def test_longest_name_fits_every_file(self, tmp_path):
        # 255 bytes less "_x.qasm": export-qasm's file name is 255 bytes
        name = "n" * NAME_MAX_BYTES
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(replace(preset("fig4"), name=name, periods=1).to_text())
        for verb in ("run", "export-qasm"):
            assert main([verb, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert len((tmp_path / f"{name}_x.qasm").name.encode()) == 255
        assert (tmp_path / name / "trace.csv").exists()


# names that lead outside --out or into its root, then names that stay valid:
# short texts over characters that matter to a path, separators aside
run_names = st.one_of(
    st.sampled_from(["", ".", "..", "../escaped", "a/b", "/abs", "a\x00b"]),
    st.text(alphabet="a.\\- ", min_size=1, max_size=6))
tiny_configs = st.builds(
    RunConfig, name=run_names, mode=st.sampled_from(("single", "coupled")),
    a1=st.floats(0.0, math.pi / 2), gamma0_1=st.sampled_from((0.1, 1e4, 1e308)),
    a2=st.just(0.5), gamma0_2=st.just(0.1), periods=st.just(1),
    steps_per_period=st.just(8), interaction=st.sampled_from(("native", "none")),
    shots_mode=st.sampled_from(("exact", "sampled")), shots=st.integers(1, 50))


class TestOutputStaysUnderOut:
    @given(cfg=tiny_configs, verb=st.sampled_from(RUN_VERBS))
    @settings(max_examples=80, deadline=None)
    def test_every_file_lands_under_out(self, cfg, verb):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            cfg_path = root / "run.cfg"
            cfg_path.write_text(cfg.to_text())
            out = root / "root" / "out"
            argv = [verb, "--config", str(cfg_path), "--out", str(out)]
            if verb == "scan":
                argv += ["--delta", "0.1"]  # one coupling strength
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            created = [q for q in root.rglob("*") if q != cfg_path]
            if code == 2:
                assert created == []
            assert all(q == out.parent or out in (q, *q.parents) for q in created)


class TestLogLevel:
    RUN = ["run", "--preset", "fig4", "--sampled", "--periods", "2"]

    def test_silent_without_the_flag(self, tmp_path, capsys):
        assert main(self.RUN + ["--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_debug_shows_sampling_clips_and_analysis(self, tmp_path, capsys):
        assert main(self.RUN + ["--out", str(tmp_path), "-v", "debug"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert ("DEBUG qmemristor.measurement: stream (0,) axis x: "
                "clipped 0 of 61 p_up values to [0, 1]") in err
        assert any(line.startswith("INFO qmemristor.analysis: dropping") for line in err)

    def test_debug_shows_concurrence_interventions(self, tmp_path, capsys):
        coupled = ["run", "--preset", "fig9", "--exact", "--periods", "1",
                   "--out", str(tmp_path)]
        assert main(coupled) == 0
        assert capsys.readouterr().err == ""
        assert main(coupled + ["-v", "debug"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("DEBUG qmemristor.analysis: concurrence of 61 state(s)")
                   for line in err) == 1

    def test_info_hides_debug_and_leaves_no_handler(self, tmp_path, capsys):
        assert main(self.RUN + ["--out", str(tmp_path), "--log-level", "INFO"]) == 0
        err = capsys.readouterr().err
        assert "INFO qmemristor.analysis" in err and "DEBUG" not in err
        logger = logging.getLogger("qmemristor")
        assert logger.handlers == [] and logger.level == logging.NOTSET

    def test_unknown_level_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.RUN + ["--out", str(tmp_path), "-v", "loud"])
        assert exc.value.code == 2


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
