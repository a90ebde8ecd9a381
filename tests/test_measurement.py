import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmemristor import measurement, ops
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

from conftest import (COUPLED_PRESETS, STATE_KINDS, assert_same_bits, expectation,
                      preset_trajectory, random_density_matrix, random_state_stack)

EXACT = ShotConfig(mode="exact")


def sampled(seed, shots=5000):
    return ShotConfig(mode="sampled", shots=shots, seed=seed)


def reference_sample(exact, axis, cfg, stream):
    """One point drawn the way the sampling contract states it: a fresh
    ``default_rng(SeedSequence([seed, *stream, axis]))`` per point."""
    p_up = min(max(0.5 * (1.0 + exact), 0.0), 1.0)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, *stream, "xyz".index(axis)]))
    return 2.0 * rng.binomial(cfg.shots, p_up) / cfg.shots - 1.0


# exact values at and just outside the ends of [-1, 1]; the outer ones clip
EDGE_VALUES = [-1.0, 0.0, 1.0, math.nextafter(1.0, 2.0), -math.nextafter(1.0, 2.0),
               1.0 + 1e-9, -1.0 - 1e-9]


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


def reference_bloch(reduced):
    """(sx, sy) rows of a (n, 2, 2) stack as Tr(sigma rho), one stacked
    matmul and trace: the form `build_trace`'s two-entry sums stand for."""
    transverse = np.stack([ops.SIGMA_X, ops.SIGMA_Y])
    return np.trace(transverse[:, None] @ reduced, axis1=2, axis2=3).real


def assert_bloch_matches_reference(states):
    """Each qubit's exact (sx_I, sy_I) columns against `reference_bloch`, bit for bit."""
    reduced = [states] if states.shape[-1] == 2 else [partial_trace(states, k) for k in (1, 2)]
    times = 0.1 * np.arange(len(states))
    trace = build_trace(states, [DecayProfile(0.4, 1.0)] * len(reduced), times, EXACT)
    for series, rhos in zip(trace.qubits, reduced):
        sx, sy = reference_bloch(rhos)
        assert_same_bits(series.sx_i, sx)
        assert_same_bits(series.sy_i, sy)


class TestBlochMatchesReference:
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(STATE_KINDS),
           n=st.integers(5, 40), dim=st.sampled_from([2, 4]))
    @settings(max_examples=200, deadline=None)
    def test_random_stacks(self, seed, kind, n, dim):
        assert_bloch_matches_reference(
            random_state_stack(np.random.default_rng(seed), kind, n, dim))

    @pytest.mark.parametrize("name", COUPLED_PRESETS)
    def test_coupled_preset_trajectories(self, name):
        assert_bloch_matches_reference(preset_trajectory(name))


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

    def test_rejects_a_stack(self):
        with pytest.raises(ValueError):
            sampled_expectation(np.zeros((2, 3)), "x", sampled(1))


class TestBulkStreams:
    """The series path derives every point's PCG64 state at once; each point
    must equal a fresh per-point ``default_rng(SeedSequence(...))`` draw."""

    @given(seed=st.integers(0, 2 ** 64 - 1), shots=st.integers(1, 2 ** 63 - 1),
           prefix=st.lists(st.integers(0, 2 ** 64 - 1), max_size=3),
           inner=st.lists(st.floats(-1.0, 1.0), max_size=6),
           axis=st.sampled_from("xy"))
    @example(seed=0, shots=1, prefix=[], inner=[], axis="x")
    @example(seed=2 ** 32 - 1, shots=7, prefix=[1], inner=[0.5], axis="y")
    @example(seed=2 ** 32, shots=5000, prefix=[0, 2 ** 32], inner=[], axis="x")
    @example(seed=2 ** 64 - 1, shots=2 ** 63 - 1, prefix=[3, 0, 2 ** 64 - 1], inner=[],
             axis="y")
    @settings(max_examples=40, deadline=None)
    def test_series_matches_per_point_reference(self, seed, shots, prefix, inner, axis):
        cfg = sampled(seed, shots)
        exact = np.array(EDGE_VALUES + inner)
        expected = np.array([reference_sample(e, axis, cfg, (*prefix, i))
                             for i, e in enumerate(exact.tolist())])
        series = sampled_expectation(exact, axis, cfg, tuple(prefix))
        assert series.tobytes() == expected.tobytes()
        for i, e in enumerate(exact.tolist()):
            assert sampled_expectation(e, axis, cfg, (*prefix, i)) == series[i]

    def test_empty_series(self):
        assert sampled_expectation(np.array([]), "x", sampled(3), (0,)).shape == (0,)

    @pytest.mark.parametrize("seed, seed_words", [(0, [0]), (2 ** 32 - 1, [2 ** 32 - 1]),
                                                  (2 ** 32, [0, 1]),
                                                  (2 ** 64 - 1, [2 ** 32 - 1] * 2)])
    def test_entropy_words_split_as_numpy_does(self, seed, seed_words):
        # numpy splits each int into little-endian uint32 words, 0 into [0]
        index = np.array([0, 1, 2 ** 31, 2 ** 32 - 1])
        words = measurement._entropy_words((seed, 0, 2 ** 32 + 5), index, 1)
        table = measurement._pcg64_states(words, index.size)
        assert table.shape == (index.size, 4) and table.dtype == np.uint64
        for j, i in enumerate(index.tolist()):
            column = [w[j] if isinstance(w, np.ndarray) else w for w in words]
            assert column == seed_words + [0, 5, 1, i, 1]
            pcg = np.random.PCG64(np.random.SeedSequence([seed, 0, 2 ** 32 + 5, i, 1]))
            state_lo, state_hi, inc_lo, inc_hi = table[j].tolist()
            assert state_lo | state_hi << 64 == pcg.state["state"]["state"]
            assert inc_lo | inc_hi << 64 == pcg.state["state"]["inc"]

    @given(words=st.lists(st.lists(st.integers(0, 2 ** 64 - 1), min_size=4, max_size=4),
                          min_size=1, max_size=8))
    @example(words=[[2 ** 64 - 1] * 4])
    @example(words=[[2 ** 64 - 1, 2 ** 64 - 1, 0, 2 ** 64 - 1], [0, 0, 0, 0]])
    @settings(max_examples=300, deadline=None)
    def test_limb_seeding_matches_python_ints(self, words):
        # state = (inc + seed) * mult + inc mod 2**128 on uint64 limbs, with
        # all-ones words among the examples so every carry is taken
        seed_hi, seed_lo, inc_hi, inc_lo = np.array(words, dtype=np.uint64).T
        hi, lo = measurement._mul128(*measurement._add128(inc_hi, inc_lo, seed_hi, seed_lo),
                                     measurement._PCG_MULT)
        hi, lo = measurement._add128(hi, lo, inc_hi, inc_lo)
        for (s_hi, s_lo, i_hi, i_lo), high, low in zip(words, hi.tolist(), lo.tolist()):
            seed, inc = s_hi << 64 | s_lo, i_hi << 64 | i_lo
            assert low | high << 64 == ((inc + seed) * measurement._PCG_MULT + inc) % 2 ** 128

    def test_unrecognized_state_layout_raises_before_any_write(self):
        # a PCG64 whose public getter misreports its state: the words in
        # memory match no layout, so they may not be handed out for writing
        class Misreporting(np.random.PCG64):
            @property
            def state(self):
                reported = super().state
                reported["state"]["state"] ^= 1
                return reported

        bit_generator = Misreporting(0)
        with pytest.raises(RuntimeError, match="match no known layout"):
            measurement._pcg64_state_words(bit_generator)
        assert super(Misreporting, bit_generator).state["state"] == \
            np.random.PCG64(0).state["state"]

    def test_unknown_layout_draws_through_the_public_setter(self, monkeypatch, caplog):
        # state words that match no known layout: each point's state is set
        # through numpy's public setter instead, with the same draws, and the
        # fallback is logged once per process, naming the numpy version
        exact = np.array(EDGE_VALUES + np.linspace(-0.9, 0.9, 41).tolist())
        cfg = sampled(2 ** 64 - 1, shots=977)
        expected = [sampled_expectation(exact, "y", cfg, (1,)),
                    sampled_expectation(exact[:3], "x", cfg, (0,)),
                    sampled_expectation(0.3, "x", cfg, (0, 2))]
        monkeypatch.setattr(measurement, "_PCG64_LAYOUTS", ())
        monkeypatch.setattr(measurement, "_warn_unknown_layout",
                            functools.cache(measurement._warn_unknown_layout.__wrapped__))
        with caplog.at_level(logging.WARNING, logger=measurement.__name__):
            got = [sampled_expectation(exact, "y", cfg, (1,)),
                   sampled_expectation(exact[:3], "x", cfg, (0,)),
                   sampled_expectation(0.3, "x", cfg, (0, 2))]
        assert [np.asarray(g).tobytes() for g in got] == \
            [np.asarray(e).tobytes() for e in expected]
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert f"numpy {np.__version__}:" in record.getMessage()

    def test_wide_point_index_is_rejected(self):
        # numpy gives an index of 2**32 or more two entropy words, which a
        # series of one-word indices cannot hold: refuse, never draw another stream
        for index in ([2 ** 32], [0, 2 ** 32 + 7], [2 ** 64 - 1]):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
                measurement._entropy_words((5, 0), np.array(index, dtype=np.uint64), 0)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            measurement._entropy_words((5, 0), np.array([-1]), 0)

    def test_numpy_integers_draw_as_ints(self):
        exact = np.array(EDGE_VALUES)
        expected = sampled_expectation(exact, "x", sampled(2 ** 64 - 1), (1,))
        got = sampled_expectation(exact, "x", sampled(np.uint64(2 ** 64 - 1)), (np.int64(1),))
        assert got.tobytes() == expected.tobytes()

    def test_negative_stream_is_rejected(self):
        with pytest.raises(ValueError):
            sampled_expectation(0.0, "x", sampled(5), (-1,))


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
                expected = [reference_sample(expectation(partial_trace(s, q + 1), axis),
                                             axis, cfg, (q, i))
                            for i, s in enumerate(states)]
                assert np.array_equal(column, expected)

    # sigma_x of this matrix is 1 + 2e-12, so every x point clips
    CLIPPING = np.array([[0.5, 0.5 + 1e-12], [0.5 + 1e-12, 0.5]], dtype=complex)

    def test_sampled_mode_logs_its_clips(self, caplog):
        caplog.set_level(logging.DEBUG, logger="qmemristor.measurement")
        build_trace(np.stack([self.CLIPPING] * 5), [DecayProfile(0.4, 1.0)],
                    0.1 * np.arange(5), sampled(2))
        assert [r.getMessage() for r in caplog.records] == [
            "stream (0,) axis x: clipped 5 of 5 p_up values to [0, 1]",
            "stream (0,) axis y: clipped 0 of 5 p_up values to [0, 1]"]

    def test_sampled_coupled_trace_logs_one_record_per_series(self, caplog):
        # each qubit's reduced state of the product is the clipping matrix
        rho = np.kron(self.CLIPPING, self.CLIPPING)
        caplog.set_level(logging.DEBUG, logger="qmemristor.measurement")
        p = DecayProfile(0.4, 1.0)
        build_trace(np.stack([rho] * 5), [p, p], 0.1 * np.arange(5), sampled(2))
        assert [r.getMessage() for r in caplog.records] == [
            f"stream ({q},) axis {axis}: clipped {clips} of 5 p_up values to [0, 1]"
            for q in (0, 1) for axis, clips in (("x", 5), ("y", 0))]

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
