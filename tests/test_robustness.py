"""Properties over every RunConfig the config layer accepts.

An accepted config must round-trip losslessly through its text form, and a
run of it must either return finite loop metrics or fail fast with one of the
documented errors: ConfigError (exit 2) or NumericsError (exit 3). A
`delta_scan` holds its deltas to the config layer's type rule.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmemristor import ops
from qmemristor.config import (MODES, NORMALIZATIONS, RunConfig,
                               apply_overrides, config_from_text)
from qmemristor.errors import ConfigError, NumericsError
from qmemristor.presets import preset
from qmemristor.runner import DEFAULT_SCAN_DELTAS, delta_scan, execute

from conftest import deadline

# every finite value of the type; NaN is left out because it never compares
# equal to itself, which says nothing about the round trip
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
angle_a = st.floats(0.0, math.pi / 2)
angle_b = st.floats(0.0, 2 * math.pi, exclude_max=True)


def run_configs(name=st.just("prop")):
    """Configs over each field's accepted range, on grids of 1-2 short periods."""
    return st.builds(
        RunConfig,
        name=name,
        mode=st.sampled_from(MODES),
        a1=angle_a, b1=angle_b, gamma0_1=positive,
        a2=st.none() | angle_a, b2=st.none() | angle_b,
        gamma0_2=st.none() | positive,
        omega=positive,
        periods=st.integers(1, 2),
        steps_per_period=st.integers(8, 16),
        interaction=st.sampled_from(ops.INTERACTION_KINDS),
        axis=st.sampled_from("xyz"),
        delta=finite,
        shots_mode=st.sampled_from(("exact", "sampled")),
        # past 2**63, the end of the binomial draw's signed 64-bit count
        shots=st.integers(1, 2 ** 64),
        seed=st.integers(0, 2 ** 64 - 1),
        plot_normalization=st.sampled_from(NORMALIZATIONS),
    )


class TestConfigTextRoundTrip:
    @given(cfg=run_configs(name=st.text()))
    @settings(max_examples=200, deadline=None)
    def test_text_form_is_lossless(self, cfg):
        # config_from_text parses without validating, so every drawn config,
        # accepted or not, must come back equal
        assert config_from_text(cfg.to_text()) == cfg

    @pytest.mark.parametrize("name", ["a#b=c", "it's", 'say "hi"', "back\\slash",
                                      "two\nlines", "tab\there # not a comment"])
    def test_awkward_names(self, name):
        cfg = RunConfig(name=name, a1=0.5)
        assert config_from_text(cfg.to_text()) == cfg

    def test_bare_strings_still_parse(self):
        cfg = config_from_text("mode = single  # comment\nname = plain\na1 = 0.5\n")
        assert (cfg.mode, cfg.name, cfg.a1) == ("single", "plain", 0.5)

    def test_unterminated_string_is_a_config_error(self):
        with pytest.raises(ConfigError):
            config_from_text("mode = 'single\n")


class TestAcceptedConfigsRunOrFailFast:
    @given(cfg=run_configs())
    # period 2 decays to rest, and its loop perimeter squares to zero
    @example(cfg=RunConfig(name="prop", mode="single", a1=1.0, gamma0_1=133.0, periods=2,
                           steps_per_period=8, shots_mode="exact"))
    @settings(max_examples=150, deadline=None)
    def test_finite_metrics_or_documented_error(self, cfg):
        with deadline(2.0):
            try:
                result = execute(cfg)
            except (ConfigError, NumericsError):
                return
        for q_metrics in result.metrics:
            assert q_metrics
            for m in q_metrics:
                assert np.isfinite([m.area, m.perimeter, m.form_factor,
                                    m.pinch_distance]).all()

    def test_default_config_is_rejected(self):
        with pytest.raises(ConfigError, match="a1"):
            execute(RunConfig())

    def test_coupled_zero_amplitude_reaches_the_degenerate_loop(self):
        # fig9 with a1 = 0: the controlled rotation is diagonal in qubit 1's
        # basis, so qubit 1 keeps V = I = 0; coupled configs are not rejected
        # up front, because other gates do give such a qubit a loop
        cfg = apply_overrides(preset("fig9"), a1=0.0, periods=2)
        cfg.validate()
        with pytest.raises(NumericsError, match="zero perimeter"):
            execute(cfg)

    def test_extreme_omega_fails_fast(self):
        # the finite-difference current sqrt(omega/2) * dsigma/dt overflows
        with deadline(2.0), pytest.raises(NumericsError, match="not finite"):
            execute(RunConfig(a1=math.pi / 4, omega=1e300))

    def test_extreme_omega_fails_without_a_numpy_warning(self):
        # the overflow is reported once, as the NumericsError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with deadline(2.0), pytest.raises(NumericsError, match="not finite"):
                execute(RunConfig(a1=math.pi / 4, omega=1e300))

    @pytest.mark.parametrize("omega", [5e-324, 1e308])
    def test_omega_without_a_finite_positive_time_step_is_rejected(self, omega):
        # the step 2*pi / (omega * steps) overflows to inf, or underflows to 0
        with pytest.raises(ConfigError, match="time span"):
            RunConfig(a1=math.pi / 4, omega=omega).validate()

    def test_large_omega_still_runs(self):
        result = execute(RunConfig(a1=math.pi / 4, omega=1e200))
        assert np.isfinite([m.form_factor for m in result.metrics[0]]).all()

    @pytest.mark.parametrize("gamma0", [1e4, 1e5, 1e8])
    def test_fast_valid_decay_runs(self, gamma0):
        # the quadrature's absolute tolerance sits below the rounding noise of
        # such a rate; panels within that noise are accepted, not an error
        result = execute(RunConfig(a1=0.5, gamma0_1=gamma0, periods=1, steps_per_period=8))
        assert np.isfinite([[m.area, m.perimeter, m.form_factor, m.pinch_distance]
                            for m in result.metrics[0]]).all()


# what a caller may pass as a delta: real numbers of every size, numpy
# floats, and values of the wrong type
scan_values = (st.floats() | st.integers(-3, 3) | st.builds(np.float64, st.floats(-2, 2))
               | st.booleans() | st.none() | st.text(max_size=4))


def is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TestDeltaScanInputs:
    BASE = apply_overrides(preset("fig9"), periods=1, steps_per_period=8)

    @given(deltas=st.lists(scan_values, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_rows_or_config_error(self, deltas):
        valid = all(is_real(d) for d in deltas) and all(map(math.isfinite, deltas))
        with deadline(2.0):
            try:
                rows = delta_scan(self.BASE, deltas)
            except ConfigError:
                assert not valid
                return
            except NumericsError:
                assert valid
                return
        assert valid
        assert [r.delta for r in rows] == [float(d) for d in deltas]

    def test_default_deltas_are_plain_floats(self):
        assert [type(d) for d in DEFAULT_SCAN_DELTAS] == [float] * 10
