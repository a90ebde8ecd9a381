import math
from dataclasses import replace

import numpy as np
import pytest

from qmemristor import qasm, runner
from qmemristor.config import (RunConfig, apply_overrides, config_from_text,
                               load_config)
from qmemristor.errors import ConfigError
from qmemristor.presets import PRESET_NAMES, PRESET_NOTES, preset
from qmemristor.runner import execute

from conftest import OLD_FIG9_TEXT


class TestPresetCatalog:
    def test_catalog_is_complete(self):
        expected = {"fig1a", "fig1b", "fig4", "fig7", "fig8", "fig9", "fig10",
                    "appx_xx", "appx_zz", "appx_crx", "appx_crz", "appx_pswap"}
        assert set(PRESET_NAMES) == expected
        assert set(PRESET_NOTES) == expected

    def test_fig1_decay_strengths(self):
        assert preset("fig1a").gamma0_1 == 0.2
        assert preset("fig1b").gamma0_1 == 0.02
        assert preset("fig1a").a1 == pytest.approx(math.pi / 8)
        assert preset("fig1a").b1 == pytest.approx(math.pi / 5)
        assert preset("fig1a").plot_normalization == "initial"

    def test_fig4(self):
        cfg = preset("fig4")
        assert cfg.gamma0_1 == 0.4
        assert cfg.a1 == pytest.approx(math.pi / 4)
        assert cfg.steps_per_period == 30
        assert cfg.shots == 5000
        assert cfg.shots_mode == "sampled"

    def test_fig7_interaction(self):
        cfg = preset("fig7")
        assert cfg.mode == "coupled"
        assert (cfg.interaction, cfg.axis) == ("native", "y")
        assert cfg.gamma0_1 == cfg.gamma0_2 == 0.02
        assert cfg.periods == 20
        assert cfg.a1 == pytest.approx(math.pi / 4)
        assert cfg.b1 == 0.0

    def test_fig9_interaction(self):
        cfg = preset("fig9")
        assert (cfg.interaction, cfg.axis) == ("controlled_rotation", "y")

    def test_appendix_kinds(self):
        assert (preset("appx_xx").interaction, preset("appx_xx").axis) == ("native", "x")
        assert (preset("appx_zz").interaction, preset("appx_zz").axis) == ("native", "z")
        assert preset("appx_crx").axis == "x"
        assert preset("appx_crz").axis == "z"
        assert preset("appx_pswap").interaction == "partial_swap"

    def test_coupled_default_delta(self):
        for name in ("fig7", "fig9", "appx_pswap"):
            assert preset(name).delta == 0.1

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("fig99")


class TestConfigSerialization:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_round_trip(self, name):
        cfg = preset(name)
        assert config_from_text(cfg.to_text()) == cfg

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(preset("fig7").to_text())
        assert load_config(path) == preset("fig7")

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        mode = 'single'
        a1 = 0.5            # inline comment
        gamma0_1 = 0.3
        periods = 2
        """
        cfg = config_from_text(text)
        assert cfg.mode == "single"
        assert cfg.a1 == 0.5
        assert cfg.periods == 2

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            config_from_text("mode = 'single'\nfrequency = 2\n")

    def test_missing_mode(self):
        with pytest.raises(ConfigError):
            config_from_text("a1 = 0.5\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            config_from_text("mode = 'single'\nperiods = few\n")

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            config_from_text("mode 'single'\n")

    def test_repeated_key(self):
        with pytest.raises(ConfigError, match=r"line 4: key 'a1' repeats line 2"):
            config_from_text("mode = 'single'\na1 = 0.3\ngamma0_1 = 0.3\na1 = 0.7\n")

    def test_removed_convention_keys(self):
        # a saved config from before the paper's conventions became the only
        # ones: with both lines removed it loads as the same run
        with pytest.raises(ConfigError, match=r"line 16: unknown key 'control'"):
            config_from_text(OLD_FIG9_TEXT)
        without_control = OLD_FIG9_TEXT.replace("control = 1\n", "")
        with pytest.raises(ConfigError, match=r"unknown key 'dagger_convention'"):
            config_from_text(without_control)
        current = without_control.replace("dagger_convention = 'paper'\n", "")
        assert config_from_text(current) == preset("fig9")


class TestValidation:
    def test_every_preset_validates(self):
        for name in PRESET_NAMES:
            preset(name).validate()

    def test_out_of_range_angle(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="single", a1=2.0, gamma0_1=0.1).validate()

    def test_coupled_needs_second_qubit(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="coupled", a1=0.5, gamma0_1=0.1).validate()

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="both").validate()

    def test_grid_floor_is_caught(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="single", a1=0.5, gamma0_1=0.1, steps_per_period=4).validate()

    @pytest.mark.parametrize("field", [
        {"periods": 2.5},
        {"steps_per_period": 30.5},
        {"shots": 10.9, "shots_mode": "sampled"},
        {"seed": 1.5},
        {"periods": True},
        {"gamma0_1": "0.1"},
        {"omega": True},
        {"name": 3},
    ], ids=lambda field: "-".join(f"{k}={v!r}" for k, v in field.items()))
    def test_wrong_typed_field_is_a_config_error(self, field):
        cfg = RunConfig(**{"mode": "single", "a1": math.pi / 4, "periods": 2, **field})
        with pytest.raises(ConfigError, match=next(iter(field))):
            execute(cfg)

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "/abs", "out/",
                                      "a\x00b"])
    def test_name_must_be_one_path_component(self, name):
        # the run name is a path part under the output root
        with pytest.raises(ConfigError, match="name must be one path component"):
            RunConfig(name=name, a1=0.5).validate()

    @pytest.mark.parametrize("write", [
        lambda cfg, out: runner.run(cfg, out / cfg.name),
        lambda cfg, out: runner.delta_scan(cfg, (0.1,), out / f"{cfg.name}_scan"),
        lambda cfg, out: qasm.export_circuit(cfg),
    ], ids=["run", "delta_scan", "export_circuit"])
    def test_escaping_name_fails_before_any_write(self, tmp_path, write):
        cfg = replace(preset("fig7"), name="../escaped", periods=1)
        with pytest.raises(ConfigError, match="name must be one path component"):
            write(cfg, tmp_path / "out")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["back\\slash", "...", ".hidden", "a b", "fig4"])
    def test_names_that_stay_valid(self, name):
        RunConfig(name=name, a1=0.5).validate()

    def test_numeric_types_that_pass(self):
        cfg = RunConfig(mode="single", a1=1, omega=1, gamma0_1=np.float32(0.25),
                        periods=np.int64(2), seed=np.uint64(3))
        assert cfg.validate().grid.n_steps == 60
        coupled = RunConfig(mode="coupled", a1=0.5, a2=1, gamma0_2=1, b2=None)
        assert coupled.validate().init2.b == 0.0

    def test_components_of_coupled_preset(self):
        parts = preset("fig7").validate()
        assert parts.init2 is not None
        assert len(parts.profiles) == 2
        assert parts.interaction.kind == "native"

    def test_overrides(self):
        cfg = apply_overrides(preset("fig7"), delta=0.4, seed=9, shots=None)
        assert cfg.delta == 0.4
        assert cfg.seed == 9
        assert cfg.shots == preset("fig7").shots

    def test_override_unknown_field(self):
        with pytest.raises(ConfigError):
            apply_overrides(preset("fig7"), coupling=0.4)
