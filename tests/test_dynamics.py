import dataclasses
import logging
import math
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from qmemristor import dynamics, ops
from qmemristor.dynamics import (DecayProfile, InitialState, TimeGrid,
                                 TrajectoryState, analytic_oracle, decay_rate,
                                 kappa, kappa_schedule, lindblad_oracle,
                                 run_coupled, run_single, theta_schedule)
from qmemristor.errors import IntegrationError, StateError
from qmemristor.linalg import dagger, partial_trace, require_density_matrix
from qmemristor.ops import InteractionSpec, apply_channel, collision_step, damping_kraus

from conftest import assert_same_bits, deadline

FIG4_INIT = InitialState(math.pi / 4, math.pi / 5)
FIG4_PROFILE = DecayProfile(0.4, 1.0)
# Two real profiles at the ends of the damping map: at gamma0 = 5e-324 every
# rate and kappa rounds to (signed) zero, so every step has a = 1 and s = 0
# exactly; at gamma0 = 1e5 e^kappa underflows, a = 0 and s = 1, on every
# step of a grid of at most 16 steps per period at omega <= 2
# (TestEdgeProfiles holds them to it)
ZERO_GAMMA0, UNDERFLOW_GAMMA0 = 5e-324, 1e5
ZERO_RATE = DecayProfile(ZERO_GAMMA0, 1.0)
UNDERFLOW_RATE = DecayProfile(UNDERFLOW_GAMMA0, 1.0)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def bloch_xy(rho):
    return 2 * rho[0, 1].real, -2 * rho[0, 1].imag


class TestDecayRate:
    def test_quarter_period(self):
        p = DecayProfile(0.4, 1.0)
        assert decay_rate(math.pi / 2, p) == pytest.approx(0.4, abs=1e-14)

    def test_at_zero(self):
        p = DecayProfile(1.0, 1.0)
        assert decay_rate(0.0, p) == pytest.approx(1 - math.sin(1), abs=1e-12)

    def test_half_period(self):
        p = DecayProfile(1.0, 1.0)
        assert decay_rate(math.pi, p) == pytest.approx(1 + math.sin(1), abs=1e-12)

    def test_always_positive(self, rng):
        p = DecayProfile(0.7, 2.3)
        assert all(decay_rate(t, p) > 0 for t in rng.uniform(0, 100, size=500))


class TestKappaScheduleEmptyStepLog:
    """One DEBUG record per `kappa_schedule` call that zeroes empty steps."""

    def records(self, caplog, grid, p):
        with caplog.at_level(logging.DEBUG, logger="qmemristor.dynamics"):
            kappas = kappa_schedule(grid, p)
        return kappas, [r.getMessage() for r in caplog.records
                        if r.name == "qmemristor.dynamics"]

    def test_empty_steps_are_counted(self, caplog):
        # dt rounds to 0.0 at omega = 1e308, so all 30 steps are empty
        kappas, [message] = self.records(caplog, TimeGrid(1, 30), DecayProfile(0.3, 1e308))
        assert message == ("kappa schedule: 30 of 30 step(s) are empty (dt rounds to 0 at "
                           "omega=1e+308); their kappa is +0.0")
        assert kappas.tobytes() == np.zeros(30).tobytes()

    def test_ordinary_schedule_logs_nothing(self, caplog):
        _, messages = self.records(caplog, TimeGrid(2, 12), FIG4_PROFILE)
        assert messages == []


class TestKappa:
    def test_empty_interval(self):
        assert kappa(1.0, 1.0, FIG4_PROFILE) == 0.0

    def test_full_period_symmetry(self):
        # the oscillating part integrates to zero over a period, so only the
        # constant gamma0 term survives: kappa(0, 2*pi) = -gamma0*pi
        assert kappa(0.0, 2 * math.pi, FIG4_PROFILE) == pytest.approx(
            -0.4 * math.pi, abs=1e-10)

    @pytest.mark.parametrize("t_start, t_end", [(0.0, math.inf), (-math.inf, 0.0),
                                                (math.nan, 1.0), (0.0, math.nan),
                                                (2.0, 1.0)])
    def test_rejects_reversed_or_nonfinite_interval(self, t_start, t_end):
        with pytest.raises(ValueError, match=r"^kappa needs a finite interval with "
                                             r"t_start <= t_end, got \[\S+, \S+\]$"):
            kappa(t_start, t_end, FIG4_PROFILE)

    @pytest.mark.parametrize("t_start, t_end, p, message", [
        # omega * t overflows, then (a+b) does: math.cos would see inf
        (0.0, 1e10, DecayProfile(1.0, 1e300),
         r"^kappa's phase overflows on \[0\.0, 10000000000\.0\] at omega=1e\+300$"),
        (1e308, 1.5e308, DecayProfile(1.0, 1.0),
         r"^kappa's phase overflows on \[1e\+308, 1\.5e\+308\] at omega=1\.0$"),
        # gamma0 * span overflows: the integral itself is not finite
        (0.0, 1e300, DecayProfile(1e10, 1.0),
         r"^kappa overflows on \[0\.0, 1e\+300\] to -inf$"),
    ])
    def test_overflow_names_the_interval(self, t_start, t_end, p, message):
        with pytest.raises(ValueError, match=message):
            kappa(t_start, t_end, p)
        if t_start == 0.0:
            with pytest.raises(ValueError, match=message):
                analytic_oracle(FIG4_INIT, p, t_end)

    @pytest.mark.parametrize("omega", [1e-300, 1e-305, 3e-308, 1e-308, 1e-310, 5e-324])
    def test_tiny_omega(self, omega):
        # cos(omega t) is 1 to every digit, so the rate is gamma0 (1 - sin 1)
        # throughout; 4/omega overflows or omega/2 is subnormal below 2.2e-308
        p = DecayProfile(0.7, omega)
        expected = -0.5 * 0.7 * (1.0 - math.sin(1.0))
        assert kappa(0.0, 1.0, p) == pytest.approx(expected, rel=1e-14, abs=0.0)
        rho = analytic_oracle(InitialState(0.0), p, 1.0)
        assert rho[0, 0].real == pytest.approx(math.exp(2.0 * expected), rel=1e-14, abs=0.0)

    def test_overflowing_schedule_raises(self):
        # only the steps near t = pi overflow; the others are finite
        with deadline(1.0), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError,
                               match=r"^decay integral on \[\S+, \S+\] cannot reach tolerance"):
                kappa_schedule(TimeGrid(1, 8), DecayProfile(1e308, 1.0))

    def test_rate_above_the_tolerance_ulp_resolves(self):
        # the 1e300 rate is finite but its ulp dwarfs the absolute tolerance:
        # panels whose error estimate is rounding noise are accepted
        p = DecayProfile(1e300, 1.0)
        grid = TimeGrid(1, 8)
        with deadline(1.0):
            kappas = kappa_schedule(grid, p)
        assert np.isfinite(kappas).all() and (kappas <= 0.0).all()
        times = grid.times(p.omega).tolist()
        for k, t_start, t_end in zip(kappas.tolist(), times[:-1], times[1:]):
            assert k == pytest.approx(kappa(t_start, t_end, p), rel=1e-12, abs=0.0)

    def test_nonpositive(self, rng):
        for _ in range(50):
            t0 = rng.uniform(0, 20)
            assert kappa(t0, t0 + rng.uniform(0, 10), FIG4_PROFILE) <= 0.0

    @given(t0=st.floats(0, 10), span1=st.floats(0.01, 5), span2=st.floats(0.01, 5))
    # an interval an adaptive quadrature once integrated 5.9e-11 off in kappa
    @example(t0=0.0, span1=3.2274924225149766, span2=1.0)
    @settings(max_examples=50, deadline=None)
    def test_additive_over_adjacent_intervals(self, t0, span1, span2):
        t1 = t0 + span1
        t2 = t1 + span2
        joined = kappa(t0, t2, FIG4_PROFILE)
        split = kappa(t0, t1, FIG4_PROFILE) + kappa(t1, t2, FIG4_PROFILE)
        assert joined == pytest.approx(split, abs=5e-11)


def simpson_kappa(t, p, panels=200_000):
    """-(1/2) * integral of the rate formula over [0, t] by a composite Simpson rule."""
    s = np.linspace(0.0, t, 2 * panels + 1)
    f = p.gamma0 * (1.0 - np.sin(np.cos(p.omega * s)))
    h = t / (2 * panels)
    return -0.5 * h / 3.0 * (f[0] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum() + f[-1])


class TestKappaClosedForm:
    ORDERS = [n for n, _ in dynamics._SIN_COS_SERIES]

    def bessel_values(self):
        return [dynamics._bessel_j_at_1(n) for n in self.ORDERS]

    def test_bessel_values_match_scipy(self):
        special = pytest.importorskip("scipy.special")
        # scipy's jv is itself off by up to 1.1e-14 relative here (at J_23(1))
        for n, value in zip(self.ORDERS, self.bessel_values()):
            assert value == pytest.approx(special.jv(n, 1.0), rel=2e-14, abs=0.0)

    def test_bessel_values_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for n, value in zip(self.ORDERS, self.bessel_values()):
                assert value == float(mpmath.besselj(n, 1))

    def test_series_identity(self):
        # Jacobi-Anger at x = 0: sin 1 = 2 * sum_k (-1)^k J_{2k+1}(1)
        series = 2 * sum((-1) ** k * j for k, j in enumerate(self.bessel_values()))
        assert series == pytest.approx(math.sin(1.0), rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("t", [0.3, 2 * math.pi, 9.7, 25.0])
    def test_matches_brute_force_simpson(self, t):
        p = DecayProfile(0.7, 1.3)
        assert kappa(0.0, t, p) == pytest.approx(simpson_kappa(t, p), abs=1e-12)

    def test_matches_brute_force_simpson_on_random_profiles(self, rng):
        for _ in range(100):
            p = DecayProfile(rng.uniform(0.01, 2.0), rng.uniform(0.2, 5.0))
            t = rng.uniform(0.0, 30.0)
            assert kappa(0.0, t, p) == pytest.approx(simpson_kappa(t, p), abs=1e-13)

    def test_zero_time(self):
        assert kappa(0.0, 0.0, FIG4_PROFILE) == 0.0

    @pytest.mark.parametrize("t", [-1e-9, -2.0, math.nan])
    def test_oracle_rejects_negative_time(self, t):
        with pytest.raises(ValueError, match="^time must be nonnegative"):
            analytic_oracle(FIG4_INIT, FIG4_PROFILE, t)


class TestThetaSchedule:
    def test_zero_rate_gives_zero_angle(self):
        thetas = theta_schedule(TimeGrid(1, 10), ZERO_RATE)
        assert np.allclose(thetas, 0.0)

    def test_half_amplitude_period(self):
        # the oscillating part integrates to zero over a period, so gamma0 =
        # ln 2 / pi gives kappa = -gamma0 pi = ln(1/2) over it: the steps'
        # cos(theta) multiply to 1/2, and each is e^kappa of its own step
        grid = TimeGrid(1, 10)
        p = DecayProfile(math.log(2) / math.pi, 1.0)
        thetas = theta_schedule(grid, p)
        assert np.prod(np.cos(thetas)) == pytest.approx(0.5, abs=1e-12)
        times = grid.times(1.0).tolist()
        for theta, t_start, t_end in zip(thetas.tolist(), times[:-1], times[1:]):
            assert math.cos(theta) == pytest.approx(math.exp(kappa(t_start, t_end, p)),
                                                    abs=1e-12)

    def test_fig4_schedule_shape(self):
        grid = TimeGrid(2, 30)
        thetas = theta_schedule(grid, FIG4_PROFILE)
        assert np.all(thetas > 0.0)
        # worst step: kappa = -gamma0*(1+sin 1)*dt/2 -> arccos(e^kappa) = 0.3877
        assert np.all(thetas < 0.39)
        assert thetas.max() == pytest.approx(
            math.acos(math.exp(-0.2 * (1 + math.sin(1)) * grid.dt(1.0))), abs=1e-3)
        assert np.allclose(thetas[:30], thetas[30:], atol=1e-10)  # periodic


class TestRunSingle:
    def test_zero_rate_keeps_state_constant(self):
        states = run_single(FIG4_INIT, ZERO_RATE, TimeGrid(1, 12))
        for s in states[1:]:
            assert np.abs(s.rho - states[0].rho).max() < 1e-14

    def test_excited_population_decay(self):
        init = InitialState(0.0, 0.0)  # pure |e>
        grid = TimeGrid(2, 30)
        states = run_single(init, FIG4_PROFILE, grid)
        for s in states[::7]:
            expected = math.exp(2 * kappa(0.0, s.time, FIG4_PROFILE))
            assert s.rho[0, 0].real == pytest.approx(expected, abs=1e-11)

    def test_matches_analytic_oracle(self):
        states = run_single(FIG4_INIT, FIG4_PROFILE, TimeGrid(4, 30))
        for s in states:
            oracle = analytic_oracle(FIG4_INIT, FIG4_PROFILE, s.time)
            assert np.abs(s.rho - oracle).max() <= 1e-9

    def test_kraus_and_collision_modes_agree(self):
        grid = TimeGrid(2, 30)
        kraus = run_single(FIG4_INIT, FIG4_PROFILE, grid)
        rho = FIG4_INIT.density_matrix()
        for state, theta in zip(kraus[1:], theta_schedule(grid, FIG4_PROFILE)):
            rho = collision_step(rho, theta)
            assert np.abs(state.rho - rho).max() <= 1e-12

    def test_coarse_step_equals_two_fine_steps(self):
        coarse = run_single(FIG4_INIT, FIG4_PROFILE, TimeGrid(2, 15))
        fine = run_single(FIG4_INIT, FIG4_PROFILE, TimeGrid(2, 30))
        for i, s in enumerate(coarse):
            assert np.abs(s.rho - fine[2 * i].rho).max() <= 1e-11

    def test_validation_names_the_failing_step(self, monkeypatch):
        # doubling E1's entry quadruples the population it moves, so the
        # trace grows past 1 at the first step
        amplitudes = ops.damping_amplitudes

        def faulty(kappas):
            a, s = amplitudes(kappas)
            return a, 2.0 * s

        monkeypatch.setattr(ops, "damping_amplitudes", faulty)
        with pytest.raises(StateError, match=r"\(single trajectory, step 1\)"):
            run_single(InitialState(0.7), DecayProfile(0.3, 1.0), TimeGrid(1, 8))


class TestAnalyticOracle:
    def test_initial_projector(self):
        init = InitialState(0.6, 1.1)
        assert np.abs(analytic_oracle(init, FIG4_PROFILE, 0.0)
                      - init.density_matrix()).max() < 1e-14

    def test_full_decay_limit(self):
        p = DecayProfile(50.0, 1.0)
        out = analytic_oracle(InitialState(0.3, 0.7), p, 10.0)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_offdiagonal_magnitude(self):
        # t = 1 is one period at omega = 2 pi, over which the oscillating
        # part integrates to zero: kappa = -gamma0/2 = -1/2
        p = DecayProfile(1.0, 2 * math.pi)
        out = analytic_oracle(InitialState(math.pi / 8, math.pi / 5), p, 1.0)
        expected = math.cos(math.pi / 8) * math.sin(math.pi / 8) * math.exp(-0.5)
        assert abs(out[0, 1]) == pytest.approx(expected, abs=1e-9)
        assert abs(out[0, 1]) == pytest.approx(0.214441, abs=1e-5)

    def test_independent_of_the_quadrature(self, monkeypatch):
        states = run_single(FIG4_INIT, FIG4_PROFILE, TimeGrid(4, 30))

        def broken(*args):
            raise AssertionError("the analytic oracle reached the quadrature")
        monkeypatch.setattr(dynamics, "kappa_schedule", broken)
        monkeypatch.setattr(dynamics, "_panel_integrals", broken)
        # the oscillating part integrates to zero over whole periods
        amp = math.exp(-0.4 * math.pi)
        c, s = math.cos(FIG4_INIT.a), math.sin(FIG4_INIT.a)
        coher = c * s * amp * complex(math.cos(FIG4_INIT.b), -math.sin(FIG4_INIT.b))
        expected = np.array([[c * c * amp * amp, coher],
                             [coher.conjugate(), 1.0 - c * c * amp * amp]])
        assert np.abs(analytic_oracle(FIG4_INIT, FIG4_PROFILE, 2 * math.pi)
                      - expected).max() <= 1e-14
        for state in states:
            oracle = analytic_oracle(FIG4_INIT, FIG4_PROFILE, state.time)
            assert np.abs(state.rho - oracle).max() <= 1e-9


def free_evolution(t, omega):
    """exp(-i H t) for H = omega*sigma_z/2 (the constant offset is dropped)."""
    return np.diag([np.exp(-0.5j * omega * t), np.exp(0.5j * omega * t)])


class TestLindbladOracle:
    def test_unitary_limit(self):
        init = InitialState(0.4, 0.9)
        out = lindblad_oracle(init, ZERO_RATE, 3.0, 1e-3)
        rho0 = init.density_matrix()
        assert out[0, 0].real == pytest.approx(rho0[0, 0].real, abs=1e-10)
        assert abs(out[0, 1]) == pytest.approx(abs(rho0[0, 1]), abs=1e-10)

    def test_fourth_order_convergence(self):
        t_end = 2 * math.pi
        ref = lindblad_oracle(FIG4_INIT, FIG4_PROFILE, t_end, 2.5e-3 / 4)
        err_coarse = np.abs(lindblad_oracle(FIG4_INIT, FIG4_PROFILE, t_end, 2e-2) - ref).max()
        err_half = np.abs(lindblad_oracle(FIG4_INIT, FIG4_PROFILE, t_end, 1e-2) - ref).max()
        assert 8.0 < err_coarse / err_half < 32.0

    def test_frame_consistency_with_analytic(self):
        for t_end in (1.7, 2 * math.pi, 11.0):
            lab = lindblad_oracle(FIG4_INIT, FIG4_PROFILE, t_end, 1e-3)
            u = free_evolution(t_end, FIG4_PROFILE.omega)
            back_rotated = u.conj().T @ lab @ u
            oracle = analytic_oracle(FIG4_INIT, FIG4_PROFILE, t_end)
            assert np.abs(back_rotated - oracle).max() <= 1e-8

    def test_trace_drift_raises(self):
        # a step far above the stability limit of the stiff rate blows up
        p = DecayProfile(400.0, 1.0)
        with pytest.raises(IntegrationError):
            lindblad_oracle(InitialState(0.0, 0.0), p, 10.0, 0.5)

    @pytest.mark.parametrize("gamma0", [1e4, 1e6])
    def test_overflowing_gains_raise(self, gamma0):
        # the mode gains overflow to inf and the trace is NaN; the failure
        # is the error alone, with no numpy warning before it
        p = DecayProfile(gamma0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match=r"^trace drifted by nan"):
                lindblad_oracle(InitialState(0.0, 0.0), p, 100.0, 0.5)

    def test_overflowing_coherence_raises(self):
        # at omega = 1e300 the coherence's gains overflow to NaN while the
        # populations, and so the trace, stay exact; the failure is the error
        # alone, with no numpy warning before it
        case = (InitialState(0.0), DecayProfile(1.0, 1e300), 1.0, 0.0625)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match=f"^{re.escape(ORACLE_OVERFLOW)}$"):
                lindblad_oracle(*case)
            assert_oracles_agree(*case)

    @pytest.mark.parametrize("init, p, t_end, dt_ode", [
        (FIG4_INIT, FIG4_PROFILE, 11.0, 1e-3),
        (InitialState(0.4, 0.9), DecayProfile(0.5, 3.0), 2.3, 0.07),
        (InitialState(1.2, 4.0), DecayProfile(0.1, 0.7), 9.0, 0.25),
    ], ids=["fig4", "fast_drive_with_remainder", "coarse_step"])
    def test_coherences_stay_conjugate(self, init, p, t_end, dt_ode):
        # rho_ge is the conjugate of rho_eg's gain times ge, the conjugate of
        # eg, and IEEE arithmetic keeps conjugate symmetry
        rho0 = init.density_matrix()
        assert rho0[1, 0] == rho0[0, 1].conjugate()
        out = lindblad_oracle(init, p, t_end, dt_ode)
        assert out[0, 1].imag != 0
        assert out[1, 0] == out[0, 1].conjugate()

    @given(a=st.floats(0.0, math.pi / 2), b=st.floats(0.0, 2 * math.pi, exclude_max=True),
           t_end=st.floats(0.0, 3.0))
    @example(a=0.4, b=0.9, t_end=1.0)
    @settings(max_examples=40, deadline=None)
    def test_result_is_exactly_hermitian(self, a, b, t_end):
        # rho_gg is the trace less rho_ee, both real once rho0 is Hermitian
        out = lindblad_oracle(InitialState(a, b), FIG4_PROFILE, t_end)
        assert np.array_equal(out, out.conj().T)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            lindblad_oracle(FIG4_INIT, FIG4_PROFILE, 1.0, 0.0)

    @pytest.mark.parametrize("dt_ode", [-1e-3, math.nan, math.inf])
    def test_rejects_step_that_is_not_positive_and_finite(self, dt_ode):
        with pytest.raises(ValueError, match="^dt_ode must be positive and finite"):
            lindblad_oracle(FIG4_INIT, FIG4_PROFILE, 1.0, dt_ode)

    @pytest.mark.parametrize("t_end", [-1e-3, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_end_time(self, t_end):
        with pytest.raises(ValueError, match="^t_end must be nonnegative and finite"):
            lindblad_oracle(FIG4_INIT, FIG4_PROFILE, t_end, 1e-3)

    @pytest.mark.parametrize("t_end, dt_ode, steps", [
        (1e300, 1.0, "1e+300"),
        (1.0, 5e-324, "inf"),
        (2.0 * dynamics._MAX_RK4_STEPS, 1.0, f"{2.0 * dynamics._MAX_RK4_STEPS:.6g}"),
    ])
    def test_rejects_more_steps_than_an_array_holds(self, t_end, dt_ode, steps):
        # the error comes before any array is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    f"t_end = {t_end} at dt_ode = {dt_ode} needs {steps} RK4 steps, more "
                    f"than the {dynamics._MAX_RK4_STEPS} its half-step grid can index")):
                lindblad_oracle(InitialState(0.5), DecayProfile(0.1, 1.0), t_end, dt_ode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("t_end", [0.0, 1e-14])
    def test_no_step_returns_the_initial_state(self, t_end):
        out = lindblad_oracle(FIG4_INIT, FIG4_PROFILE, t_end, 1e-3)
        assert_same_bits(out, FIG4_INIT.density_matrix())

    def test_hamiltonian_that_rounds_to_zero(self):
        # the oracle rotates the coherence at -i omega, one subnormal step; the
        # reference's operator form holds omega/2, which rounds to 0.0, so
        # its Hamiltonian part vanishes. Neither rotation moves a gain
        p = DecayProfile(0.1, 5e-324)
        out = lindblad_oracle(FIG4_INIT, p, 1.0, 1e-2)
        assert np.abs(out - reference_lindblad_oracle(FIG4_INIT, p, 1.0, 1e-2)).max() <= 1e-13

    def test_rate_table_matches_decay_rate(self, rng):
        # the RK4 oracle takes every whole step's rates from the half-step
        # grid k*h/2, gathered into (3, B) tables of starts, midpoints and
        # ends, one per block (one block here); each entry is the scalar call
        # at its time
        for _ in range(3):
            n, h = int(rng.integers(1, 400)), float(rng.uniform(1e-3, 0.5))
            for p in (FIG4_PROFILE, DecayProfile(2.3, 3.7)):
                (table,) = oracle_rate_blocks(n, h, p)
                ref = np.array([[decay_rate((2 * i + row) * (0.5 * h), p) for i in range(n)]
                                for row in range(3)])
                assert table.shape == (3, n)
                assert table.flags.c_contiguous
                assert table.tobytes() == ref.tobytes()


class TestDigitalAgainstLindblad:
    def test_twenty_random_cases(self, rng):
        from qmemristor.ops import frame_to_schroedinger
        grid = TimeGrid(4, 30)
        for _ in range(20):
            init = InitialState(rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi))
            p = DecayProfile(rng.uniform(0.01, 1.0), 1.0)
            states = run_single(init, p, grid)
            final = states[-1]
            sx_i, sy_i = bloch_xy(final.rho)
            sx_s, sy_s = frame_to_schroedinger(sx_i, sy_i, final.time, p.omega)
            lab = lindblad_oracle(init, p, final.time, 1e-3)
            assert sx_s == pytest.approx(2 * lab[0, 1].real, abs=1e-6)
            assert sy_s == pytest.approx(-2 * lab[0, 1].imag, abs=1e-6)


class TestRunCoupled:
    def test_no_interaction_factorizes(self):
        init1 = InitialState(0.5, 0.3)
        init2 = InitialState(1.0, 4.0)
        p1 = DecayProfile(0.1, 1.0)
        p2 = DecayProfile(0.25, 1.0)
        grid = TimeGrid(1, 12)
        joint = run_coupled(init1, init2, p1, p2, grid, [InteractionSpec("none")])[0]
        solo1 = run_single(init1, p1, grid)
        solo2 = run_single(init2, p2, grid)
        for j, s1, s2 in zip(joint, solo1, solo2):
            assert np.abs(j - np.kron(s1.rho, s2.rho)).max() < 1e-12

    def test_zero_delta_native_matches_none(self):
        init = InitialState(math.pi / 4, 0.0)
        p = DecayProfile(0.02, 1.0)
        grid = TimeGrid(1, 12)
        with_gate = run_coupled(init, init, p, p, grid, [InteractionSpec("native", "y", 0.0)])[0]
        without = run_coupled(init, init, p, p, grid, [InteractionSpec("none")])[0]
        for a, b in zip(with_gate, without):
            assert np.abs(a - b).max() < 1e-13

    def test_symmetric_coupling_keeps_qubits_identical(self):
        init = InitialState(math.pi / 4, 0.0)
        p = DecayProfile(0.02, 1.0)
        rhos = run_coupled(init, init, p, p, TimeGrid(2, 30),
                           [InteractionSpec("native", "y", 0.1)])[0]
        for rho in rhos:
            assert np.abs(SWAP @ rho @ SWAP - rho).max() <= 1e-11
            r1 = partial_trace(rho, 1)
            r2 = partial_trace(rho, 2)
            assert np.abs(r1 - r2).max() <= 1e-11

    def test_product_of_local_channels(self, rng):
        # one coupled step with no gate equals local Kraus maps on each side
        init1 = InitialState(0.2, 0.0)
        init2 = InitialState(1.2, 2.0)
        p1 = DecayProfile(0.3, 1.0)
        p2 = DecayProfile(0.8, 1.0)
        grid = TimeGrid(1, 8)
        k1 = kappa_schedule(grid, p1)[0]
        k2 = kappa_schedule(grid, p2)[0]
        joint = run_coupled(init1, init2, p1, p2, grid, [InteractionSpec("none")])[0, 1]
        lhs1 = apply_channel(init1.density_matrix(), damping_kraus(k1))
        lhs2 = apply_channel(init2.density_matrix(), damping_kraus(k2))
        assert np.abs(joint - np.kron(lhs1, lhs2)).max() < 1e-13

    def test_equal_profiles_share_one_kappa_schedule(self, monkeypatch):
        calls = []

        def counted(grid, p):
            calls.append(p)
            return kappa_schedule(grid, p)

        monkeypatch.setattr(dynamics, "kappa_schedule", counted)
        init = InitialState(0.3, 0.0)
        grid = TimeGrid(1, 8)
        p = DecayProfile(0.1, 1.0)
        run_coupled(init, init, p, DecayProfile(0.1, 1.0), grid, [InteractionSpec("none")])
        assert calls == [p]
        run_coupled(init, init, p, DecayProfile(0.2, 1.0), grid, [InteractionSpec("none")])
        assert calls == [p, p, DecayProfile(0.2, 1.0)]

    def test_batch_shares_one_kappa_schedule(self, monkeypatch):
        calls = []

        def counted(grid, p):
            calls.append(p)
            return kappa_schedule(grid, p)

        monkeypatch.setattr(dynamics, "kappa_schedule", counted)
        init = InitialState(0.3, 0.0)
        p = DecayProfile(0.1, 1.0)
        specs = [InteractionSpec("native", "y", d) for d in (0.1, 0.2, 0.3)]
        rhos = run_coupled(init, init, p, p, TimeGrid(1, 8), specs)
        assert rhos.shape == (3, 9, 4, 4)
        assert calls == [p]

    def test_empty_batch(self):
        init = InitialState(0.3, 0.0)
        p = DecayProfile(0.1, 1.0)
        assert run_coupled(init, init, p, p, TimeGrid(1, 8), []).shape == (0, 9, 4, 4)

    def test_batch_is_read_only(self):
        init = InitialState(0.3, 0.0)
        p = DecayProfile(0.1, 1.0)
        rhos = run_coupled(init, init, p, p, TimeGrid(1, 8), [InteractionSpec("none")])
        with pytest.raises(ValueError):
            rhos[0, 1, 0, 0] = 0.0

    def test_batch_validates_each_trajectory_as_a_lone_run(self, monkeypatch):
        # a gate of 2I quadruples the trace: the third spec fails at step 1
        # with the text its own run gives, although the first two are fine
        unitary = ops.interaction_unitary

        def faulty(spec):
            return 2.0 * np.eye(4) if spec.delta == 0.7 else unitary(spec)

        monkeypatch.setattr(ops, "interaction_unitary", faulty)
        init = InitialState(0.3, 0.0)
        p = DecayProfile(0.1, 1.0)
        grid = TimeGrid(1, 8)
        bad = InteractionSpec("native", "y", 0.7)
        with pytest.raises(StateError) as lone:
            run_coupled(init, init, p, p, grid, [bad])
        assert "(coupled trajectory, step 1)" in str(lone.value)
        specs = [InteractionSpec("native", "y", 0.1), InteractionSpec("native", "y", 0.2), bad]
        with pytest.raises(StateError) as batch:
            run_coupled(init, init, p, p, grid, specs)
        assert str(batch.value) == str(lone.value)

    def test_rejects_mismatched_omega(self):
        init = InitialState(0.3, 0.0)
        with pytest.raises(ValueError):
            run_coupled(init, init, DecayProfile(0.1, 1.0), DecayProfile(0.1, 2.0),
                        TimeGrid(1, 10), [InteractionSpec("none")])


def oracle_rate_blocks(n, h, p):
    """The (3, B) rate tables `lindblad_oracle` steps its n whole steps of h
    with, in order, from a call that ends half a step past them."""
    calls = []
    products = dynamics._blocked_mode_products

    def spy(rate_blocks, step, omega):
        calls.append(list(rate_blocks))
        return products(calls[-1], step, omega)

    with mock.patch.object(dynamics, "_blocked_mode_products", spy):
        lindblad_oracle(InitialState(0.5), p, (n + 0.5) * h, h)
    # the whole steps first, then the half-step remainder on its own
    whole, (tail,) = calls
    assert tail.shape == (3, 1)
    return whole


class TestTypeValidation:
    def test_grid_floor(self):
        with pytest.raises(ValueError):
            TimeGrid(4, 7)

    def test_grid_periods(self):
        with pytest.raises(ValueError):
            TimeGrid(0, 30)

    def test_profile_positivity(self):
        with pytest.raises(ValueError):
            DecayProfile(-0.1, 1.0)
        with pytest.raises(ValueError):
            DecayProfile(0.1, 0.0)

    def test_profile_finiteness(self):
        for gamma0, omega in ((math.inf, 1.0), (math.nan, 1.0),
                              (0.1, math.inf), (0.1, math.nan)):
            with pytest.raises(ValueError):
                DecayProfile(gamma0, omega)

    def test_profile_has_no_constant_rate(self):
        # the rate formula is the only rate: no field replaces it
        with pytest.raises(TypeError):
            DecayProfile(1.0, 1.0, constant_rate=0.0)
        assert [f.name for f in dataclasses.fields(DecayProfile)] == ["gamma0", "omega"]

    def test_initial_state_ranges(self):
        with pytest.raises(ValueError):
            InitialState(-0.1, 0.0)
        with pytest.raises(ValueError):
            InitialState(0.3, 7.0)

    def test_initial_state_norm(self):
        psi = InitialState(0.7, 1.3).ket()
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-14)

    @given(a=st.floats(0.0, math.pi / 2), b=st.floats(0.0, 2 * math.pi, exclude_max=True))
    # np.outer rounds psi_g conj(psi_g) to imaginary part -4.04e-18 here
    @example(a=0.4, b=0.9)
    def test_initial_density_matrix_is_exactly_hermitian(self, a, b):
        psi = InitialState(a, b).ket()
        rho = InitialState(a, b).density_matrix()
        assert np.array_equal(rho, rho.conj().T)
        # only rho_gg's imaginary part differs from the plain outer product
        outer = np.outer(psi, psi.conj())
        assert_same_bits(rho.real, outer.real)
        assert_same_bits(rho[0], outer[0])
        assert_same_bits(rho[1, 0], outer[1, 0])


class TestEdgeProfiles:
    """ZERO_GAMMA0 and UNDERFLOW_GAMMA0 stand for a zero rate and for an
    amplitude that underflows, in the edge cases and the drawn profiles; on
    the grids and omegas the tests draw (at most 16 steps per period where
    the underflow is drawn, omega in [0.5, 2]), they must stay at those ends
    of the damping map."""

    @pytest.mark.parametrize("grid", [TimeGrid(1, 8), TimeGrid(2, 12), TimeGrid(2, 16),
                                      TimeGrid(20, 60)], ids=str)
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_zero_rate_keeps_every_amplitude(self, grid, omega):
        a, s = ops.damping_amplitudes(kappa_schedule(grid, DecayProfile(ZERO_GAMMA0, omega)))
        assert (a == 1.0).all() and (s == 0.0).all()

    @pytest.mark.parametrize("grid", [TimeGrid(1, 8), TimeGrid(2, 16)], ids=str)
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_underflow_empties_every_amplitude(self, grid, omega):
        a, s = ops.damping_amplitudes(kappa_schedule(grid, DecayProfile(UNDERFLOW_GAMMA0, omega)))
        assert (a == 0.0).all() and (s == 1.0).all()


# Every phase but shrinking, for the drawn bit-equality properties of the
# coupled stepper: a stepper that returns wrong states fails their first
# drawn example, and shrinking it took minutes per property. The examples,
# their number and the assertions are unchanged; a failure reports the
# example as drawn.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

kappa_lists = st.lists(st.one_of(st.floats(-50.0, 0.0), st.sampled_from((0.0, -1e4))),
                       min_size=1, max_size=4)


class TestTermTables:
    """The gather form of `_step_coupled` against np.kron of the Kraus terms."""

    @given(k1=kappa_lists, k2=kappa_lists, shared=st.booleans())
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_tables_rebuild_every_kronecker_term(self, k1, k2, shared):
        k1 = np.array(k1)
        k2 = k1 if shared else np.resize(np.array(k2), k1.shape)
        table = dynamics._term_coefficients(k1, k2)
        assert table.shape == (len(k1), 4, 4)
        assert table.dtype == np.complex128
        # the operand a complex-by-float multiply would cast c_i to
        assert_same_bits(table.imag, np.zeros(table.shape))
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 1.0
        kraus1, kraus2 = damping_kraus(k1), damping_kraus(k2)
        # entry 4i + j of term k gathers rho[m(i), m(j)], to be scaled by
        # c_i = table[n, k, i] and c_j = table[n, k, j]
        row, col = np.divmod(dynamics._TERM_INDEX, 4)
        for n in range(len(k1)):
            for k in range(4):
                e, f = kraus1[n, k // 2], kraus2[n, k % 2]
                m = row[k, ::4]
                assert np.array_equal(row[k], np.repeat(m, 4))
                assert np.array_equal(col[k], np.tile(m, 4))
                # row i of the term is c_i at column m(i) and +0 elsewhere
                rebuilt = np.zeros((4, 4), dtype=complex)
                rebuilt[np.arange(4), m] = table[n, k]
                assert_same_bits(rebuilt, np.kron(e, f))
                # c_i is the float64 product of the two qubits' row entries
                for i in range(4):
                    (r1, r2), (m1, m2) = divmod(i, 2), divmod(m[i], 2)
                    assert_same_bits(table[n, k, i].real, e.real[r1, m1] * f.real[r2, m2])


# The per-qubit trajectory loops: one Kraus map per step, applied as matrix
# products. run_single's running products and sums and run_coupled's stacked
# step perform the same floating-point operations in the same order, so they
# must reproduce these loops bit for bit, sign bits included.

def reference_single(init, p, grid):
    times = grid.times(p.omega)
    kappas = kappa_schedule(grid, p)
    rho = init.density_matrix()
    states = [TrajectoryState(0.0, rho)]
    for i, k in enumerate(kappas):
        rho = apply_channel(rho, damping_kraus(min(k, 0.0)))
        require_density_matrix(rho, 2, context=f"single trajectory, step {i + 1}")
        states.append(TrajectoryState(float(times[i + 1]), rho))
    return states


def reference_coupled(init1, init2, p1, p2, grid, spec):
    times = grid.times(p1.omega)
    k1 = kappa_schedule(grid, p1)
    k2 = kappa_schedule(grid, p2)
    rho = np.kron(init1.density_matrix(), init2.density_matrix())
    states = [TrajectoryState(0.0, rho)]
    for i in range(grid.n_steps):
        kraus1 = damping_kraus(min(k1[i], 0.0))
        kraus2 = damping_kraus(min(k2[i], 0.0))
        stepped = np.zeros((4, 4), dtype=complex)
        for e in kraus1:
            for f in kraus2:
                op = np.kron(e, f)
                stepped += op @ rho @ dagger(op)
        rho = ops.apply_interaction(stepped, spec)
        require_density_matrix(rho, 4, context=f"coupled trajectory, step {i + 1}")
        states.append(TrajectoryState(float(times[i + 1]), rho))
    return states


def assert_identical(states, reference):
    assert len(states) == len(reference)
    for s, r in zip(states, reference):
        assert s.time == r.time
        assert_same_bits(s.rho, r.rho)


def assert_stack_identical(rhos, reference):
    """A stepped (n_steps+1, d, d) stack against a reference loop's states."""
    assert rhos.shape[0] == len(reference)
    assert_same_bits(rhos, np.stack([state.rho for state in reference]))


initial_states = st.builds(InitialState, st.floats(0.0, math.pi / 2),
                           st.floats(0.0, 6.28))
grids = st.builds(TimeGrid, st.integers(1, 2), st.integers(8, 16))


def profiles(omega, edges=(ZERO_GAMMA0, UNDERFLOW_GAMMA0)):
    """The profile at omega, gamma0 drawn from [0.01, 1] or ``edges``."""
    return st.builds(DecayProfile, st.one_of(st.floats(0.01, 1.0), st.sampled_from(edges)),
                     st.just(omega))


couplings = st.builds(InteractionSpec, st.sampled_from(ops.INTERACTION_KINDS),
                      st.sampled_from("xyz"), st.floats(-math.pi, math.pi))


EXCITED, GROUND, TILTED = InitialState(0.0, 0.0), InitialState(math.pi / 2, 0.0), \
    InitialState(0.7, 1.3)
RATE = DecayProfile(0.3, 1.0)
ROTATION = InteractionSpec("controlled_rotation", "y", 0.7)
COUPLED_EDGE_CASES = {
    "excited": (EXCITED, EXCITED, RATE, RATE, TimeGrid(2, 12), ROTATION),
    "ground": (GROUND, GROUND, RATE, RATE, TimeGrid(2, 12), ROTATION),
    "excited_ground": (EXCITED, GROUND, RATE, RATE, TimeGrid(2, 12), ROTATION),
    "ground_excited": (GROUND, EXCITED, RATE, RATE, TimeGrid(2, 12), ROTATION),
    "zero_rate": (TILTED, TILTED, ZERO_RATE, ZERO_RATE, TimeGrid(2, 12), ROTATION),
    # s = 0 on the first qubit only: its E1 is empty, every coefficient of
    # terms 2 and 3 is 0, while the second qubit decays
    "zero_rate_one_qubit": (TILTED, EXCITED, ZERO_RATE, RATE, TimeGrid(2, 12), ROTATION),
    # e^kappa underflows to 0: a = 0 and s = 1 on every step
    "amplitude_underflows": (TILTED, TILTED, UNDERFLOW_RATE, UNDERFLOW_RATE,
                             TimeGrid(1, 8), ROTATION),
    "amplitude_underflows_one_qubit": (TILTED, TILTED, RATE, UNDERFLOW_RATE,
                                       TimeGrid(1, 8), ROTATION),
    # two kappa schedules, so the two qubits' coefficients differ on every step
    "different_gamma0": (TILTED, TILTED, DecayProfile(0.05, 1.0), DecayProfile(0.8, 1.0),
                         TimeGrid(2, 12), ROTATION),
    "shortest_grid": (TILTED, EXCITED, RATE, RATE, TimeGrid(1, 8), ROTATION),
    # dt rounds to 0.0, so every kappa is +0.0 and every step the gate alone
    "empty_steps": (TILTED, TILTED, DecayProfile(0.3, 1e308), DecayProfile(0.3, 1e308),
                    TimeGrid(1, 30), ROTATION),
    "kind_none": (TILTED, TILTED, RATE, RATE, TimeGrid(2, 12), InteractionSpec("none", "x", 0.7)),
    # a subnormal coherence -5e-324 - 0j, whose signed zeros the single stepper
    # once got wrong
    "subnormal_coherence": (InitialState(5e-324, 3.0), TILTED, DecayProfile(1.0, 1.0),
                            DecayProfile(1.0, 1.0), TimeGrid(1, 8), ROTATION),
    **{f"{kind}_delta_0": (TILTED, EXCITED, RATE, RATE, TimeGrid(1, 12),
                           InteractionSpec(kind, "x", 0.0))
       for kind in ops.INTERACTION_KINDS},
}


class TestStepperMatchesReferenceLoops:
    @given(data=st.data(), init=initial_states, grid=grids,
           omega=st.floats(0.5, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_single(self, data, init, grid, omega):
        p = data.draw(profiles(omega))
        assert_identical(run_single(init, p, grid), reference_single(init, p, grid))

    @pytest.mark.parametrize("init, p, grid", [
        (InitialState(0.0, 0.0), DecayProfile(0.3, 1.0), TimeGrid(2, 12)),
        (InitialState(math.pi / 2, 0.0), DecayProfile(0.3, 1.0), TimeGrid(2, 12)),
        (InitialState(0.7, 1.3), ZERO_RATE, TimeGrid(2, 12)),
        (InitialState(0.7, 1.3), DecayProfile(0.3, 1.0), TimeGrid(1, 8)),
        # dt rounds to 0.0, so every kappa is +0.0 and every step the identity
        (InitialState(0.7, 1.3), DecayProfile(0.3, 1e308), TimeGrid(1, 30)),
        # a subnormal coherence -5e-324 - 0j: times a, its imaginary part is
        # -0 while the map's matrix products give +0
        (InitialState(5e-324, 3.0), DecayProfile(1.0, 1.0), TimeGrid(1, 8)),
        # a subnormal coherence -5e-324 + 5e-324j that damps to zero, each
        # part then a signed zero
        (InitialState(5e-324, 4.0), DecayProfile(1.0, 1.0), TimeGrid(1, 8)),
    ], ids=["excited", "ground", "zero_rate", "shortest_grid", "empty_steps",
            "subnormal_coherence", "subnormal_coherence_damps_to_zero"])
    def test_single_edge_cases(self, init, p, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = run_single(init, p, grid)
            reference = reference_single(init, p, grid)
        assert_identical(states, reference)

    @given(data=st.data(), init1=initial_states, init2=initial_states,
           grid=grids, omega=st.floats(0.5, 2.0), spec=couplings)
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_coupled(self, data, init1, init2, grid, omega, spec):
        p1 = data.draw(profiles(omega))
        p2 = data.draw(profiles(omega))
        rhos = run_coupled(init1, init2, p1, p2, grid, [spec])
        assert_stack_identical(rhos[0], reference_coupled(init1, init2, p1, p2, grid, spec))

    @pytest.mark.parametrize("init1, init2, p1, p2, grid, spec", COUPLED_EDGE_CASES.values(),
                             ids=COUPLED_EDGE_CASES.keys())
    def test_coupled_edge_cases(self, init1, init2, p1, p2, grid, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rhos = run_coupled(init1, init2, p1, p2, grid, [spec])
            reference = reference_coupled(init1, init2, p1, p2, grid, spec)
        assert_stack_identical(rhos[0], reference)

    @given(data=st.data(), init1=initial_states, init2=initial_states,
           grid=grids, omega=st.floats(0.5, 2.0), spec=couplings,
           deltas=st.lists(st.one_of(st.floats(-math.pi, math.pi),
                                     st.sampled_from((0.0, 0.25, -1.5))),
                           min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_coupled_batch(self, data, init1, init2, grid, omega, spec, deltas):
        p1 = data.draw(profiles(omega))
        p2 = data.draw(profiles(omega))
        specs = [dataclasses.replace(spec, delta=d) for d in deltas]
        rhos = run_coupled(init1, init2, p1, p2, grid, specs)
        assert rhos.shape == (len(specs), grid.n_steps + 1, 4, 4)
        for s, trajectory in zip(specs, rhos):
            alone = run_coupled(init1, init2, p1, p2, grid, [s])[0]
            assert np.array_equal(trajectory, alone)
            assert_stack_identical(trajectory, reference_coupled(init1, init2, p1, p2, grid, s))


class TestCoupledBlocks:
    """`_step_coupled` spreads its table one block of steps at a time; the
    states must not depend on where the blocks fall."""

    @pytest.mark.parametrize("block", [1, 5, 23, 24, 25])
    def test_block_size_leaves_every_state_unchanged(self, monkeypatch, block):
        # a 24-step grid, so blocks of 5 and 23 end on a short block and 25
        # holds every step
        args = (TILTED, EXCITED, DecayProfile(0.05, 1.0), DecayProfile(0.8, 1.0),
                TimeGrid(2, 12))
        specs = [InteractionSpec("controlled_rotation", "y", d) for d in (0.7, -1.5)]
        monkeypatch.setattr(dynamics, "_COUPLED_BLOCK", block)
        batch = run_coupled(*args, specs)
        for spec, trajectory in zip(specs, batch):
            assert_same_bits(run_coupled(*args, [spec])[0], trajectory)
            assert_stack_identical(trajectory, reference_coupled(*args, spec))

    def test_grid_longer_than_two_blocks(self):
        grid = TimeGrid(3, 2 * dynamics._COUPLED_BLOCK // 3 + 5)
        assert grid.n_steps > 2 * dynamics._COUPLED_BLOCK
        rhos = run_coupled(TILTED, TILTED, RATE, RATE, grid, [ROTATION])
        assert_stack_identical(rhos[0], reference_coupled(TILTED, TILTED, RATE, RATE, grid,
                                                          ROTATION))


# The decay integral as it stood while every panel refined on its own, a
# depth-first recursion over Python floats. The array quadrature performs the
# same floating-point operations on each panel, so it must reproduce every
# kappa schedule bit for bit, sign bits included.

def reference_adaptive_simpson(f, a, fa, b, fb, m, fm, whole, tol, depth):
    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = simpson(fa, flm, fm, m - a)
    right = simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    err = abs(delta)
    if depth <= 0 or err <= tol:
        return left + right + delta / 15.0
    if not math.isfinite(err):
        raise IntegrationError(
            f"decay integral on [{a}, {b}] cannot reach tolerance {tol:.1e}")
    if err <= dynamics._ROUNDING_FLOOR * abs(whole):
        return left + right + delta / 15.0
    return (reference_adaptive_simpson(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
            + reference_adaptive_simpson(f, m, fm, b, fb, rm, frm, right, tol / 2.0,
                                         depth - 1))


def reference_decay_integral(a, b, p):
    def f(t):
        return p.gamma0 * (1.0 - math.sin(math.cos(p.omega * t)))
    n_panels = max(1, math.ceil((b - a) / (2.0 * math.pi / p.omega / 4.0)))
    edges = np.linspace(a, b, n_panels + 1).tolist()
    panel_tol = dynamics.QUAD_TOL / n_panels
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = 0.5 * (lo + hi)
        fa, fm, fb = f(lo), f(m), f(hi)
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        total += reference_adaptive_simpson(f, lo, fa, hi, fb, m, fm, whole, panel_tol,
                                            depth=48)
    return total


def reference_kappa(t_start, t_end, p):
    if t_end == t_start:
        return 0.0
    return -0.5 * reference_decay_integral(t_start, t_end, p)


def reference_kappa_schedule(grid, p):
    times = grid.times(p.omega)
    return np.array([reference_kappa(times[i], times[i + 1], p) for i in range(grid.n_steps)])


def outcome(fn, *args):
    """The bytes of fn(*args), or IntegrationError if it raises one."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except IntegrationError:
        return IntegrationError


# gamma0 log-uniform over fifteen decades: from rates whose tolerance is met
# at once to rates whose tolerance is below the ulp of a panel's value
log_uniform_gamma0 = st.floats(-3.0, 12.0).map(lambda e: 10.0 ** e)
quadrature_profiles = st.builds(DecayProfile, st.one_of(log_uniform_gamma0, st.just(ZERO_GAMMA0)),
                                st.floats(0.1, 10.0))


class TestQuadratureMatchesReferenceRecursion:
    @given(p=quadrature_profiles,
           grid=st.builds(TimeGrid, st.integers(1, 5), st.integers(8, 200)))
    # the steps near t = pi overflow
    @example(p=DecayProfile(1e308, 1.0), grid=TimeGrid(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_kappa_schedule(self, p, grid):
        assert outcome(kappa_schedule, grid, p) == outcome(reference_kappa_schedule, grid, p)

    def test_empty_steps_are_positive_zero(self):
        # omega * steps_per_period overflows, so dt and every step are 0.0
        p = DecayProfile(1.0, 1e308)
        kappas = kappa_schedule(TimeGrid(1, 8), p)
        assert kappas.tobytes() == reference_kappa_schedule(TimeGrid(1, 8), p).tobytes()
        assert kappas.tobytes() == np.zeros(8).tobytes()


class TestKappaScheduleMatchesClosedForm:
    @given(p=quadrature_profiles,
           grid=st.builds(TimeGrid, st.integers(1, 5), st.integers(8, 200)))
    @example(p=FIG4_PROFILE, grid=TimeGrid(4, 30))
    @settings(max_examples=60, deadline=None)
    def test_every_step_within_the_quadrature_tolerance(self, p, grid):
        # the quadrature's absolute tolerance, halved in kappa, plus its
        # rounding floor and the closed form's own rounding
        times = grid.times(p.omega).tolist()
        for k, t_start, t_end in zip(kappa_schedule(grid, p).tolist(), times[:-1], times[1:]):
            exact = kappa(t_start, t_end, p)
            assert abs(k - exact) <= (dynamics.QUAD_TOL / 2.0
                                      + 64 * sys.float_info.epsilon * abs(exact))


# The Lindblad oracle as it stood before it stepped each eigenmode as a
# scalar: every step's 4x4 RK4 propagator built as a stack, then their
# ordered product. The oracle's two Bloch equations are eigenmodes of that
# propagator, so it does the same arithmetic in another basis and order and
# must agree to rounding.

def liouvillian_parts(omega):
    """Constant and rate-proportional parts H and D of the vectorized
    master equation, L(t) = H + gamma(t) D, built from the sigma operators.

    Row-major vec convention: vec(A rho B) = kron(A, B^T) vec(rho).
    """
    ident = ops.IDENTITY_2
    h = 0.5 * omega * ops.SIGMA_Z
    ham = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    sm, sp = ops.SIGMA_MINUS, ops.SIGMA_PLUS
    n_op = sp @ sm
    diss = (np.kron(sm, sp.T)
            - 0.5 * (np.kron(n_op, ident) + np.kron(ident, n_op.T)))
    return ham, diss


def reference_rk4_propagator(p, starts, h):
    """Stacked one-step RK4 propagators for steps [t, t+h], t in ``starts``."""
    ham, diss = liouvillian_parts(p.omega)
    rate = decay_rate(starts[:, None] + [0.0, 0.5 * h, h], p)
    l_lo = ham + rate[:, 0, None, None] * diss
    l_mid = ham + rate[:, 1, None, None] * diss
    l_hi = ham + rate[:, 2, None, None] * diss
    ident = np.eye(4, dtype=complex)
    k1 = l_lo
    k2 = l_mid @ (ident + 0.5 * h * k1)
    k3 = l_mid @ (ident + 0.5 * h * k2)
    k4 = l_hi @ (ident + h * k3)
    return ident + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_ordered_product(mats):
    """Product mats[n-1] @ ... @ mats[0] by pairwise reduction."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            tail = mats[-1]
            mats = mats[1::2] @ mats[0:-1:2]
            mats = np.concatenate([mats, tail[None]])
        else:
            mats = mats[1::2] @ mats[0::2]
    return mats[0]


def reference_lindblad_oracle(init, p, t_end, dt_ode):
    v = init.density_matrix().reshape(4)
    n_full, rem = divmod(t_end, dt_ode)
    n_full = int(n_full)
    if n_full:
        prop = reference_rk4_propagator(p, np.arange(n_full) * dt_ode, dt_ode)
        v = reference_ordered_product(prop) @ v
    if rem > 1e-12 * max(1.0, t_end):
        prop = reference_rk4_propagator(p, np.array([n_full * dt_ode]), float(rem))
        v = prop[0] @ v
    return v.reshape(2, 2)


class TestLindbladMatchesReferencePropagators:
    @given(init=initial_states, gamma0=st.floats(0.01, 1.0), omega=st.floats(0.5, 3.0),
           t_end=st.floats(0.0, 62.8), dt_ode=st.floats(1e-3, 2e-2))
    # whole steps only (binary-exact times), then the same with a remainder step
    @example(init=FIG4_INIT, gamma0=0.4, omega=1.0, t_end=2.0, dt_ode=0.0078125)
    @example(init=FIG4_INIT, gamma0=0.4, omega=1.0, t_end=2.003, dt_ode=0.0078125)
    @example(init=FIG4_INIT, gamma0=0.4, omega=1.0, t_end=62.8, dt_ode=1e-3)
    @example(init=FIG4_INIT, gamma0=0.4, omega=1.0, t_end=0.0, dt_ode=1e-3)
    @settings(max_examples=40, deadline=None)
    def test_oscillating_rate(self, init, gamma0, omega, t_end, dt_ode):
        p = DecayProfile(gamma0, omega)
        out = lindblad_oracle(init, p, t_end, dt_ode)
        assert np.abs(out - reference_lindblad_oracle(init, p, t_end, dt_ode)).max() <= 1e-13

    # At a zero rate every step matrix is the same, and the reference's
    # pairwise product rounds each level's equal partial products alike: its
    # own error grows like n_steps * eps (up to 2.9e-13 against an exact
    # product of the same factors over 40k-63k zero-rate steps). At most
    # 2000 steps keep it under the bound.
    @given(init=initial_states, omega=st.floats(0.5, 3.0),
           t_end=st.floats(0.0, 62.8), dt_ode=st.floats(0.0315, 0.1))
    @example(init=FIG4_INIT, omega=1.0, t_end=62.8, dt_ode=0.0315)
    @example(init=FIG4_INIT, omega=1.0, t_end=32.0, dt_ode=0.0625)
    @settings(max_examples=40, deadline=None)
    def test_zero_rate(self, init, omega, t_end, dt_ode):
        p = DecayProfile(ZERO_GAMMA0, omega)
        out = lindblad_oracle(init, p, t_end, dt_ode)
        assert np.abs(out - reference_lindblad_oracle(init, p, t_end, dt_ode)).max() <= 1e-13


# The Lindblad oracle as it stood before it stepped only two eigenmodes: the
# basis from eig(H / max|H| + D) with its columns scaled to integers, and RK4
# on all four modes in complex arithmetic. It reads the rates the way the
# oracle does: whole steps from the half-step grid k*dt/2, gathered into one
# contiguous table (here by fancy indexing), and the remainder step as its
# own three-sample gain, multiplied in as an array. numpy's complex multiply
# rounds a*b and b*a apart in the last bit, so every product of two arrays
# runs in place with the running stage on the left, as in the oracle; and it
# rounds a strided loop apart from a contiguous one, so each mode is stepped
# on its own (a (4, 3, 1) stack of one step's stages would run strided).
# The oracle and this reference must agree bit for bit.

def reference_eig_modes(omega):
    ham, diss = liouvillian_parts(omega)
    _, modes = np.linalg.eig(ham / max(np.abs(ham).max(), sys.float_info.min) + diss)
    modes = modes / modes[np.abs(modes).argmax(axis=0), range(4)]
    inverse = np.linalg.inv(modes)
    ham_eig = np.diag(inverse @ ham @ modes)
    diss_eig = np.diag(inverse @ diss @ modes)
    return modes, inverse, ham_eig, diss_eig


def reference_mode_products(ham_eig, diss_eig, rate, h):
    """Every mode's product of RK4 gains over steps of size h, rates (3, n)."""
    prods = []
    for ham, diss in zip(ham_eig, diss_eig):
        k1, mid, end = ham + diss * rate
        k2 = 0.5 * h * k1
        k2 += 1.0
        k2 *= mid
        k3 = 0.5 * h * k2
        k3 += 1.0
        k3 *= mid
        k4 = h * k3
        k4 += 1.0
        k4 *= end
        gains = 2.0 * k2
        gains += k1
        k3 *= 2.0
        gains += k3
        gains += k4
        gains *= h / 6.0
        gains += 1.0
        prods.append(gains.prod())
    return np.array(prods)


def reference_four_mode_oracle(init, p, t_end, dt_ode):
    modes, inverse, ham_eig, diss_eig = reference_eig_modes(p.omega)
    n_full, rem = divmod(t_end, dt_ode)
    n_full = int(n_full)
    tail = rem > 1e-12 * max(1.0, t_end)
    if not (n_full or tail):
        return init.density_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        half = decay_rate(np.arange(2 * n_full + 1) * (0.5 * dt_ode), p)
        rate = half[np.arange(3)[:, None] + 2 * np.arange(n_full)]
        prods = reference_mode_products(ham_eig, diss_eig, rate, dt_ode)
        if tail:
            start = n_full * dt_ode
            rate = decay_rate(start + rem * np.array([[0.0], [0.5], [1.0]]), p)
            prods *= reference_mode_products(ham_eig, diss_eig, rate, rem)
        v = modes @ (prods * (inverse @ init.density_matrix().reshape(4)))
    rho = v.reshape(2, 2)
    drift = abs(rho.trace() - 1.0)
    if not drift <= 1e-6:
        raise IntegrationError(f"trace drifted by {drift:.3e}; decrease dt_ode")
    return rho


ORACLE_OVERFLOW = "RK4 gains overflow to a non-finite state entry; decrease dt_ode"


def assert_oracles_agree(init, p, t_end, dt_ode):
    """The oracle returns what the reference returns, bit for bit. Where the
    reference raises, the oracle raises IntegrationError with one of its two
    pinned messages: the reference's own trace drift, or, where an overflowing
    coherence leaves its trace finite (the reference's matmul spreads it into
    the trace as NaN), `ORACLE_OVERFLOW`."""
    outcomes = []
    for oracle in (lindblad_oracle, reference_four_mode_oracle):
        try:
            outcomes.append(oracle(init, p, t_end, dt_ode))
        except IntegrationError as exc:
            outcomes.append(str(exc))
    out, ref = outcomes
    if isinstance(ref, str):
        assert isinstance(out, str) and out in (ref, ORACLE_OVERFLOW)
    else:
        assert np.array_equal(out, ref)


# a Hamiltonian part that rounds to zero, one that nearly does, and one so
# large that every step overflows
EXTREME_OMEGAS = (5e-324, 1e-300, 1e300)


class TestTwoModeOracleMatchesFourModeReference:
    @given(init=initial_states,
           p=st.one_of(st.floats(0.5, 3.0), st.sampled_from(EXTREME_OMEGAS)).flatmap(profiles),
           t_end=st.one_of(st.floats(0.0, 62.8), st.sampled_from([0.0, 1e-14])),
           dt_ode=st.floats(1e-3, 0.1))
    # whole steps only (binary-exact times), then the same with a remainder step
    @example(init=FIG4_INIT, p=FIG4_PROFILE, t_end=2.0, dt_ode=0.0078125)
    @example(init=FIG4_INIT, p=FIG4_PROFILE, t_end=2.003, dt_ode=0.0078125)
    @example(init=FIG4_INIT, p=FIG4_PROFILE, t_end=62.8, dt_ode=1e-3)
    # exactly one block of whole steps, then one step into the next block
    @example(init=FIG4_INIT, p=FIG4_PROFILE, t_end=dynamics._RK4_BLOCK * 0.0078125,
             dt_ode=0.0078125)
    @example(init=FIG4_INIT, p=FIG4_PROFILE, t_end=(dynamics._RK4_BLOCK + 1) * 0.0078125,
             dt_ode=0.0078125)
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit(self, init, p, t_end, dt_ode):
        assert_oracles_agree(init, p, t_end, dt_ode)

    @pytest.mark.parametrize("omega", EXTREME_OMEGAS)
    @pytest.mark.parametrize("t_end", [0.0, 1e-14, 0.05])
    def test_bit_for_bit_at_extreme_omega(self, omega, t_end):
        for p in (DecayProfile(0.4, omega), DecayProfile(ZERO_GAMMA0, omega)):
            assert_oracles_agree(FIG4_INIT, p, t_end, 1e-3)

    @given(omega=st.one_of(st.floats(5e-324, 1e300), st.sampled_from(EXTREME_OMEGAS)))
    @settings(max_examples=100, deadline=None)
    def test_integer_basis_diagonalizes_both_parts_at_the_oracle_rates(self, omega):
        # the reference's eigenbasis is the integer one: the ground population
        # (stationary), excited-to-ground transfer, and the coherences
        # rho_eg and rho_ge
        modes, inverse, ham_eig, diss_eig = reference_eig_modes(omega)
        assert np.array_equal(modes, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, -1, 0, 0]])
        assert np.array_equal(modes @ inverse, np.eye(4))
        for part, eig in zip(liouvillian_parts(omega), (ham_eig, diss_eig)):
            assert np.array_equal(inverse @ part @ modes, np.diag(eig))
        assert ham_eig[0] == diss_eig[0] == 0
        assert ham_eig[3] == ham_eig[2].conjugate() and diss_eig[3] == diss_eig[2]
        # modes 1 and 2 are the population and coherence equations the
        # oracle steps, at the rates it passes to its RK4 gains (whose values,
        # overflowing at a large omega, do not matter here)
        with mock.patch.object(dynamics, "_rk4_gains", wraps=dynamics._rk4_gains) as gains, \
                np.errstate(over="ignore", invalid="ignore"):
            dynamics._blocked_mode_products([np.ones((3, 1))], 1e-3, omega)
        (ham1, diss1), (ham2, diss2) = (c.args[:2] for c in gains.call_args_list)
        assert (ham_eig[1], diss_eig[1], diss_eig[2]) == (ham1, diss1, diss2)
        if omega >= sys.float_info.min:
            assert ham_eig[2] == ham2
        else:
            # the operator form holds omega as two halves, which a subnormal
            # omega rounds (at 5e-324 both to 0.0, so its Hamiltonian part
            # vanishes); the oracle's -i omega is then within one subnormal
            # step of that part's rate, a difference no gain resolves, as
            # the bit-for-bit tests at EXTREME_OMEGAS show
            assert ham_eig[2] == -1j * (0.5 * omega + 0.5 * omega)
            assert abs(ham_eig[2] - ham2) <= 5e-324


# The RK4 oracle as it sampled the rate before the half-step table: an (n, 3)
# table of every step's start, midpoint and end, 3n samples, with the step
# sizes (the remainder last) as an array. Its midpoints i*dt + dt/2 and ends
# i*dt + dt round apart from the half-step grid's (2i+1)*dt/2 and
# (2i+2)*dt/2, so the two oracles agree to rounding, not bit for bit.

def reference_per_step_oracle(init, p, t_end, dt_ode):
    modes, inverse, ham_eig, diss_eig = reference_eig_modes(p.omega)
    n_full, rem = divmod(t_end, dt_ode)
    h = np.full(int(n_full), dt_ode)
    if rem > 1e-12 * max(1.0, t_end):
        h = np.append(h, rem)
    rate = decay_rate(np.arange(len(h))[:, None] * dt_ode + h[:, None] * [0.0, 0.5, 1.0], p)
    prods = [1.0]
    for j in (1, 2):
        lam = ham_eig[j] + diss_eig[j] * rate
        k1 = lam[:, 0]
        k2 = (1.0 + 0.5 * h * k1) * lam[:, 1]
        k3 = (1.0 + 0.5 * h * k2) * lam[:, 1]
        k4 = (1.0 + h * k3) * lam[:, 2]
        prods.append((1.0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).prod())
    prods.append(np.conj(prods[2]))
    v = modes @ (np.array(prods) * (inverse @ init.density_matrix().reshape(4)))
    return v.reshape(2, 2)


# the worst |half-step - per-step| over 29000 uniform draws from the
# property's ranges (most with a fifth of them at t_end < 3 dt_ode) was
# 1.78e-15; the bound is 56 times that
PER_STEP_TABLE_BOUND = 1e-13

ORACLE_EDGE_CASES = {
    "tail_step_only": (FIG4_INIT, FIG4_PROFILE, 7e-4, 1e-3),
    "whole_binary_steps_only": (FIG4_INIT, FIG4_PROFILE, 2.0, 0.0078125),
    # the remainder is cut at 1e-12 * max(1, t_end), about 2e-12 here
    "remainder_above_cutoff": (FIG4_INIT, FIG4_PROFILE, 2.0 + 4e-12, 0.0078125),
    "remainder_below_cutoff": (FIG4_INIT, FIG4_PROFILE, 2.0 + 1e-12, 0.0078125),
    "zero_time": (FIG4_INIT, FIG4_PROFILE, 0.0, 1e-3),
    "zero_rate_with_remainder": (FIG4_INIT, ZERO_RATE, 2.003, 0.0078125),
    "zero_rate": (InitialState(0.4, 0.9), ZERO_RATE, 62.8, 1e-3),
}


class TestHalfStepRateTable:
    # an underflowing rate is far too stiff for these steps: both oracles
    # overflow, which the four-mode comparison covers
    @given(init=initial_states,
           p=st.floats(0.5, 3.0).flatmap(lambda omega: profiles(omega, (ZERO_GAMMA0,))),
           t_end=st.floats(0.0, 62.8), dt_ode=st.floats(1e-3, 0.1))
    @example(init=FIG4_INIT, p=FIG4_PROFILE, t_end=62.8, dt_ode=1e-3)
    @settings(max_examples=60, deadline=None)
    def test_within_bound_of_the_per_step_table(self, init, p, t_end, dt_ode):
        out = lindblad_oracle(init, p, t_end, dt_ode)
        ref = reference_per_step_oracle(init, p, t_end, dt_ode)
        assert np.abs(out - ref).max() <= PER_STEP_TABLE_BOUND

    @pytest.mark.parametrize("case", ORACLE_EDGE_CASES.values(), ids=ORACLE_EDGE_CASES.keys())
    def test_edge_case(self, case):
        assert_oracles_agree(*case)
        out = lindblad_oracle(*case)
        assert np.abs(out - reference_per_step_oracle(*case)).max() <= PER_STEP_TABLE_BOUND

    def test_remainder_cutoff(self):
        whole = lindblad_oracle(*ORACLE_EDGE_CASES["whole_binary_steps_only"])
        below = lindblad_oracle(*ORACLE_EDGE_CASES["remainder_below_cutoff"])
        above = lindblad_oracle(*ORACLE_EDGE_CASES["remainder_above_cutoff"])
        assert_same_bits(below, whole)
        assert not np.array_equal(above, whole)


BLOCK = dynamics._RK4_BLOCK


class TestBlockedRateTables:
    @pytest.mark.parametrize("n", [0, BLOCK, BLOCK + 1, 2 * BLOCK + 5],
                             ids=["no_step", "one_full_block", "one_step_past_a_block",
                                  "two_blocks_and_a_partial"])
    @pytest.mark.parametrize("p", [FIG4_PROFILE, DecayProfile(2.3, 3.7), ZERO_RATE],
                             ids=["fig4", "fast", "zero_rate"])
    def test_blocks_match_scalar_decay_rate(self, n, p):
        h = 0.0123
        blocks = oracle_rate_blocks(n, h, p)
        assert [b.shape for b in blocks] == [(3, min(BLOCK, n - start))
                                             for start in range(0, n, BLOCK)]
        assert all(b.flags.c_contiguous for b in blocks)
        table = np.concatenate(blocks, axis=1) if blocks else np.empty((3, 0))
        ref = np.array([[decay_rate((2 * i + row) * (0.5 * h), p) for i in range(n)]
                        for row in range(3)]).reshape(3, n)
        assert table.tobytes() == ref.tobytes()

    def test_cache_hit_equals_miss(self):
        dynamics._modulation_block.cache_clear()
        miss = dynamics._modulation_block(1.0, 1e-3, BLOCK, 2 * BLOCK)
        hit = dynamics._modulation_block(1.0, 1e-3, BLOCK, 2 * BLOCK)
        info = dynamics._modulation_block.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        dynamics._modulation_block.cache_clear()
        assert dynamics._modulation_block(1.0, 1e-3, BLOCK, 2 * BLOCK).tobytes() \
            == hit.tobytes() == miss.tobytes()
        # a whole oracle call, cold and then warm
        t_end = (2 * BLOCK + 7.5) * 1e-3
        dynamics._modulation_block.cache_clear()
        cold = lindblad_oracle(FIG4_INIT, FIG4_PROFILE, t_end, 1e-3)
        assert dynamics._modulation_block.cache_info().hits == 0
        warm = lindblad_oracle(FIG4_INIT, FIG4_PROFILE, t_end, 1e-3)
        assert dynamics._modulation_block.cache_info().hits == 3
        assert_same_bits(warm, cold)

    def test_cached_tables_are_read_only(self):
        table = dynamics._modulation_block(1.0, 1e-3, 0, BLOCK)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
        # the rate tables built from it are the caller's own
        (rates,) = oracle_rate_blocks(BLOCK, 1e-3, FIG4_PROFILE)
        assert rates.flags.writeable

    def test_memory_is_bounded_by_blocks_and_cache(self):
        # a million steps: the cache fills to its bound and evicts, and the
        # call holds a few blocks' arrays, not a (3, n) table (120 MB)
        dynamics._modulation_block.cache_clear()
        tracemalloc.start()
        try:
            out = lindblad_oracle(FIG4_INIT, FIG4_PROFILE, 1000.0, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(out).all()
        assert peak <= 8e6
        info = dynamics._modulation_block.cache_info()
        assert info.maxsize == dynamics._MODULATION_CACHE_BLOCKS
        assert info.currsize == info.maxsize
