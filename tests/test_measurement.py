import math

import numpy as np
import pytest

from qmemristor.config import apply_overrides
from qmemristor.dynamics import (DecayProfile, InitialState, TimeGrid,
                                 run_coupled, run_single)
from qmemristor.errors import StateError
from qmemristor.linalg import partial_trace
from qmemristor.measurement import (ShotConfig, build_trace, current_series,
                                    finite_difference, sampled_expectation,
                                    voltage)
from qmemristor.ops import InteractionSpec
from qmemristor.presets import preset
from qmemristor.runner import execute

from conftest import expectation, random_density_matrix

EXACT = ShotConfig(mode="exact")


def sampled(seed, shots=5000):
    return ShotConfig(mode="sampled", shots=shots, seed=seed)


def single_states(init, p, grid):
    """One single trajectory as its (n_steps+1, 2, 2) stack, as `execute` builds it."""
    return np.stack([s.rho for s in run_single(init, p, grid)])


def coupled_states(init1, init2, p, grid, spec):
    """One coupled trajectory as its slice of the stepped array, as `execute` passes it."""
    return run_coupled(init1, init2, p, p, grid, [spec])[0]


def first_bloch_columns(rho):
    """(sx_I, sy_I) at t = 0 of an exact trace that starts in ``rho``."""
    times = 0.1 * np.arange(5)
    q = build_trace(np.stack([rho] * 5), [DecayProfile(0.4, 1.0)], times, EXACT).qubits[0]
    return q.sx_i[0], q.sy_i[0]


class TestExactExpectation:
    def test_maximally_mixed(self):
        mixed = np.eye(2, dtype=complex) / 2
        for value in first_bloch_columns(mixed):
            assert value == pytest.approx(0.0, abs=1e-14)

    def test_excited_state_z(self):
        # the excited state's Bloch vector is +z: no transverse component
        excited = np.diag([1.0, 0.0]).astype(complex)
        assert first_bloch_columns(excited) == (0.0, 0.0)

    def test_transverse_components_of_pure_state(self):
        # phase convention: sin(a)e^{ib} multiplies |g>, giving
        # <sigma_x> = sin(2a)cos(b) and <sigma_y> = +sin(2a)sin(b); the sign
        # is pinned by agreement with the lab-frame master-equation oracle
        init = InitialState(math.pi / 4, math.pi / 5)
        sx, sy = first_bloch_columns(init.density_matrix())
        assert sx == pytest.approx(math.cos(math.pi / 5), abs=1e-12)
        assert sy == pytest.approx(math.sin(math.pi / 5), abs=1e-12)

    def test_real_within_tolerance(self, rng):
        for _ in range(100):
            rho = random_density_matrix(rng)
            for axis in "xyz":
                raw = np.trace({"x": np.array([[0, 1], [1, 0]]),
                                "y": np.array([[0, -1j], [1j, 0]]),
                                "z": np.diag([1, -1])}[axis] @ rho)
                assert abs(raw.imag) <= 1e-12


class TestSampledExpectation:
    def test_certain_outcome(self):
        # <sigma_x> = 1 means p = 1; <sigma_x> = 0 means p = 1/2
        for seed in (0, 1, 12345):
            assert sampled_expectation(1.0, "x", sampled(seed)) == 1.0
        assert sampled_expectation(0.0, "x", sampled(7)) != 1.0

    def test_deterministic_repeat(self, rng):
        exact = expectation(random_density_matrix(rng), "y")
        cfg = sampled(99)
        first = sampled_expectation(exact, "y", cfg, stream=(0, 17))
        assert sampled_expectation(exact, "y", cfg, stream=(0, 17)) == first

    def test_streams_are_independent(self):
        cfg = sampled(99)
        values = {sampled_expectation(0.0, "x", cfg, stream=(0, i)) for i in range(20)}
        assert len(values) > 1

    def test_standard_deviation(self):
        # <sigma_x> = 0: estimator std should be ~1/sqrt(shots)
        estimates = [sampled_expectation(0.0, "x", sampled(seed)) for seed in range(200)]
        std = np.std(estimates)
        target = 1.0 / math.sqrt(5000)
        assert abs(std - target) <= 0.2 * target

    def test_unbiased(self):
        # the mean of 10^4 seeded estimates sits within 3 standard errors
        exact = expectation(InitialState(0.9, 0.3).density_matrix(), "x")
        mean = np.mean([sampled_expectation(exact, "x", sampled(seed))
                        for seed in range(10_000)])
        sigma = math.sqrt((1 - exact ** 2) / 5000)
        assert abs(mean - exact) <= 3 * sigma / 100

    def test_requires_sampled_mode(self):
        with pytest.raises(ValueError):
            sampled_expectation(0.3, "x", EXACT)


class TestVoltage:
    def test_zero(self):
        assert voltage(0.0, 1.0) == 0.0

    def test_unit_value(self):
        assert voltage(-1.0, 1.0) == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-12)

    def test_omega_scaling(self):
        v1 = voltage(0.6, 1.0)
        v4 = voltage(0.6, 4.0)
        assert abs(v4 / v1) == pytest.approx(2.0, abs=1e-12)


class TestCurrent:
    def test_static_series_is_zero(self):
        n = 40
        series = current_series(np.zeros(n), np.full(n, 0.37), 0.1, 1.0)
        assert np.abs(series).max() < 1e-12

    def test_sinusoid_derivative(self):
        dt = 2 * math.pi / 30
        t = np.arange(31) * dt
        series = current_series(np.zeros(31), np.sin(t), dt, 1.0)
        expected = math.sqrt(0.5) * math.cos(0.0)
        assert series[0] == pytest.approx(expected, rel=0.015)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            current_series(np.zeros(2), np.zeros(2), 0.1, 1.0)

    def test_linear_in_components(self, rng):
        n = 50
        dt = 0.17
        sx1, sy1 = rng.normal(size=n), rng.normal(size=n)
        sx2, sy2 = rng.normal(size=n), rng.normal(size=n)
        a, b = 0.7, -1.9
        combined = current_series(a * sx1 + b * sx2, a * sy1 + b * sy2, dt, 1.0)
        split = (a * current_series(sx1, sy1, dt, 1.0)
                 + b * current_series(sx2, sy2, dt, 1.0))
        assert np.abs(combined - split).max() < 1e-11

    def test_voltage_linear(self, rng):
        sy1, sy2 = rng.normal(size=20), rng.normal(size=20)
        assert np.allclose(voltage(2 * sy1 - 3 * sy2, 1.0),
                           2 * voltage(sy1, 1.0) - 3 * voltage(sy2, 1.0))

    def test_trace_wrapper_matches_stored_column(self):
        init = InitialState(math.pi / 4, math.pi / 5)
        profile = DecayProfile(0.4, 1.0)
        grid = TimeGrid(1, 15)
        states = single_states(init, profile, grid)
        trace = build_trace(states, [profile], grid.times(1.0), EXACT)
        q = trace.qubits[0]
        dt = float(trace.t[1] - trace.t[0])
        assert np.allclose(current_series(q.sx_s, q.sy_s, dt, 1.0), q.current)


class TestFiniteDifference:
    def test_quartic_exact_for_cubic(self):
        # the five-point stencil differentiates cubics exactly
        t = np.linspace(0, 2, 21)
        y = 2 * t ** 3 - t ** 2 + 0.5 * t - 3
        expected = 6 * t ** 2 - 2 * t + 0.5
        assert np.abs(finite_difference(y, t[1] - t[0]) - expected).max() < 1e-10

    def test_fourth_order_convergence(self):
        errs = []
        for n in (40, 80):
            t = np.linspace(0, 2 * math.pi, n + 1)
            d = finite_difference(np.sin(t), t[1] - t[0])
            errs.append(np.abs(d - np.cos(t)).max())
        assert errs[0] / errs[1] > 12.0

    def test_five_samples_is_the_minimum(self):
        t = np.linspace(0, 1, 5)
        assert np.allclose(finite_difference(t ** 2, t[1] - t[0]), 2 * t, atol=1e-12)
        with pytest.raises(ValueError, match="at least 5"):
            finite_difference(t[:4] ** 2, t[1] - t[0])


class TestBuildTrace:
    def test_single_exact_trace(self):
        init = InitialState(math.pi / 4, math.pi / 5)
        profile = DecayProfile(0.4, 1.0)
        grid = TimeGrid(2, 30)
        states = single_states(init, profile, grid)
        trace = build_trace(states, [profile], grid.times(1.0), EXACT)
        assert len(trace.qubits) == 1
        assert trace.t.shape == (grid.n_steps + 1,)
        q = trace.qubits[0]
        norms = q.sx_i ** 2 + q.sy_i ** 2
        assert np.all(norms <= 1 + 1e-9)
        assert np.allclose(q.voltage, voltage(q.sy_s, 1.0))

    def test_coupled_trace_has_two_qubits(self):
        init = InitialState(math.pi / 4, 0.0)
        p = DecayProfile(0.02, 1.0)
        grid = TimeGrid(1, 10)
        states = coupled_states(init, init, p, grid, InteractionSpec("native", "y", 0.1))
        conc = np.zeros(grid.n_steps + 1)
        trace = build_trace(states, [p, p], grid.times(1.0), EXACT, concurrence=conc)
        assert len(trace.qubits) == 2
        assert trace.concurrence is not None

    def test_sampled_reproducibility(self):
        init = InitialState(math.pi / 4, math.pi / 5)
        profile = DecayProfile(0.4, 1.0)
        grid = TimeGrid(1, 15)
        states = single_states(init, profile, grid)
        t1 = build_trace(states, [profile], grid.times(1.0), sampled(5))
        t2 = build_trace(states, [profile], grid.times(1.0), sampled(5))
        assert np.array_equal(t1.qubits[0].sx_i, t2.qubits[0].sx_i)
        assert np.array_equal(t1.qubits[0].current, t2.qubits[0].current)
        t3 = build_trace(states, [profile], grid.times(1.0), sampled(6))
        assert not np.array_equal(t1.qubits[0].sx_i, t3.qubits[0].sx_i)

    def test_exact_bloch_norm_above_one_raises(self):
        # not a state: <sigma_x> = 1.2 puts the Bloch vector outside the disc
        bad = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        states = np.stack([bad] * 5)
        with pytest.raises(StateError):
            build_trace(states, [DecayProfile(0.4, 1.0)], 0.1 * np.arange(5), EXACT)

    def test_sampled_shot_noise_outside_unit_disc_is_accepted(self):
        # at this seed shot noise puts one point of the equatorial fig4
        # state at sx^2 + sy^2 = 1.057
        result = execute(apply_overrides(preset("fig4"), seed=126))
        q = result.trace.qubits[0]
        assert float(np.max(q.sx_i ** 2 + q.sy_i ** 2)) > 1.0

    @pytest.mark.parametrize("coupled", [False, True])
    def test_exact_columns_equal_per_point_expectations(self, coupled):
        init = InitialState(math.pi / 5, 1.1)
        p = DecayProfile(0.3, 1.0)
        grid = TimeGrid(2, 30)
        if coupled:
            states = coupled_states(init, InitialState(0.4, 2.5), p, grid,
                                    InteractionSpec("controlled_rotation", "x", 0.7))
            reduced = [[partial_trace(s, q + 1) for s in states] for q in (0, 1)]
        else:
            states = single_states(init, p, grid)
            reduced = [list(states)]
        trace = build_trace(states, [p] * len(reduced), grid.times(1.0), EXACT)
        for series, rhos in zip(trace.qubits, reduced):
            for axis, column in (("x", series.sx_i), ("y", series.sy_i)):
                expected = np.array([expectation(r, axis) for r in rhos])
                assert column.tobytes() == expected.tobytes()

    def test_sampled_columns_use_one_stream_per_point(self):
        init = InitialState(math.pi / 4, 0.5)
        p = DecayProfile(0.3, 1.0)
        grid = TimeGrid(1, 10)
        states = coupled_states(init, init, p, grid, InteractionSpec("native", "y", 0.2))
        cfg = sampled(11, shots=100)
        trace = build_trace(states, [p, p], grid.times(1.0), cfg)
        for q, series in enumerate(trace.qubits):
            for axis, column in (("x", series.sx_i), ("y", series.sy_i)):
                expected = [sampled_expectation(expectation(partial_trace(s, q + 1), axis),
                                                axis, cfg, (q, i))
                            for i, s in enumerate(states)]
                assert np.array_equal(column, expected)

    def test_profile_count_mismatch(self):
        init = InitialState(0.3, 0.0)
        profile = DecayProfile(0.4, 1.0)
        grid = TimeGrid(1, 10)
        states = single_states(init, profile, grid)
        with pytest.raises(ValueError):
            build_trace(states, [profile, profile], grid.times(1.0), EXACT)

    def test_times_count_mismatch(self):
        profile = DecayProfile(0.4, 1.0)
        grid = TimeGrid(1, 10)
        states = single_states(InitialState(0.3, 0.0), profile, grid)
        with pytest.raises(ValueError):
            build_trace(states, [profile], grid.times(1.0)[:-1], EXACT)


class TestShotConfigValidation:
    def test_modes(self):
        with pytest.raises(ValueError):
            ShotConfig(mode="approx")

    def test_shots_floor(self):
        with pytest.raises(ValueError):
            ShotConfig(mode="sampled", shots=0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            ShotConfig(mode="sampled", seed=-1)

    def test_shots_ceiling(self):
        # the binomial draw takes a signed 64-bit count
        assert ShotConfig(mode="sampled", shots=2 ** 63 - 1).shots == 2 ** 63 - 1
        with pytest.raises(ValueError, match="shots"):
            ShotConfig(mode="sampled", shots=2 ** 63)
