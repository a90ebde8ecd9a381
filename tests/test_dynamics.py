import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemristor import dynamics, ops
from qmemristor.dynamics import (DecayProfile, InitialState, TimeGrid,
                                 TrajectoryState, analytic_oracle, decay_rate,
                                 kappa, kappa_schedule, lindblad_oracle,
                                 run_coupled, run_single, theta_schedule)
from qmemristor.errors import IntegrationError, StateError
from qmemristor.linalg import dagger, partial_trace, require_density_matrix
from qmemristor.ops import (InteractionSpec, apply_channel, collision_step,
                            damping_kraus, free_evolution)

from conftest import deadline

FIG4_INIT = InitialState(math.pi / 4, math.pi / 5)
FIG4_PROFILE = DecayProfile(0.4, 1.0)
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


class TestKappa:
    def test_empty_interval(self):
        assert kappa(1.0, 1.0, FIG4_PROFILE) == 0.0

    def test_constant_rate_override(self):
        p = DecayProfile(1.0, 1.0, constant_rate=0.8)
        assert kappa(0.5, 2.5, p) == pytest.approx(-0.8, abs=1e-12)

    def test_full_period_symmetry(self):
        # the oscillating part integrates to zero over a period, so only the
        # constant gamma0 term survives: kappa(0, 2*pi) = -gamma0*pi
        assert kappa(0.0, 2 * math.pi, FIG4_PROFILE) == pytest.approx(
            -0.4 * math.pi, abs=1e-10)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            kappa(2.0, 1.0, FIG4_PROFILE)

    @pytest.mark.parametrize("t0", [0.0, 3.0])
    def test_unresolvable_rate_raises(self, t0):
        # near t = 0 the 1e308 rate is finite but its ulp dwarfs the absolute
        # tolerance; near t = pi it overflows to inf and the estimate is NaN
        with deadline(1.0), pytest.raises(IntegrationError):
            kappa(t0, t0 + 0.2, DecayProfile(1e308, 1.0))

    def test_nonpositive(self, rng):
        for _ in range(50):
            t0 = rng.uniform(0, 20)
            assert kappa(t0, t0 + rng.uniform(0, 10), FIG4_PROFILE) <= 0.0

    @given(t0=st.floats(0, 10), span1=st.floats(0.01, 5), span2=st.floats(0.01, 5))
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
        assert dynamics._kappa_closed_form(t, p) == pytest.approx(
            simpson_kappa(t, p), abs=1e-12)

    def test_matches_quadrature_kappa(self, rng):
        for _ in range(100):
            p = DecayProfile(rng.uniform(0.01, 2.0), rng.uniform(0.2, 5.0))
            t = rng.uniform(0.0, 30.0)
            assert dynamics._kappa_closed_form(t, p) == pytest.approx(
                kappa(0.0, t, p), abs=1e-13)

    def test_constant_rate(self):
        p = DecayProfile(1.0, 1.0, constant_rate=0.8)
        assert dynamics._kappa_closed_form(2.5, p) == -0.5 * 0.8 * 2.5

    def test_zero_time(self):
        assert dynamics._kappa_closed_form(0.0, FIG4_PROFILE) == 0.0

    @pytest.mark.parametrize("t", [-1e-9, -2.0, math.nan])
    def test_rejects_negative_time(self, t):
        with pytest.raises(ValueError):
            dynamics._kappa_closed_form(t, FIG4_PROFILE)


class TestThetaSchedule:
    def test_zero_rate_gives_zero_angle(self):
        p = DecayProfile(1.0, 1.0, constant_rate=0.0)
        thetas = theta_schedule(TimeGrid(1, 10), p)
        assert np.allclose(thetas, 0.0)

    def test_half_amplitude_step(self):
        # constant rate tuned so every step has kappa = ln(1/2)
        grid = TimeGrid(1, 10)
        dt = grid.dt(1.0)
        p = DecayProfile(1.0, 1.0, constant_rate=2 * math.log(2) / dt)
        thetas = theta_schedule(grid, p)
        assert np.allclose(thetas, math.pi / 3, atol=1e-12)

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
        p = DecayProfile(1.0, 1.0, constant_rate=0.0)
        states = run_single(FIG4_INIT, p, TimeGrid(1, 12))
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


class TestAnalyticOracle:
    def test_initial_projector(self):
        init = InitialState(0.6, 1.1)
        assert np.abs(analytic_oracle(init, FIG4_PROFILE, 0.0)
                      - init.density_matrix()).max() < 1e-14

    def test_full_decay_limit(self):
        p = DecayProfile(1.0, 1.0, constant_rate=50.0)
        out = analytic_oracle(InitialState(0.3, 0.7), p, 10.0)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_offdiagonal_magnitude(self):
        # constant rate 1 over t=1 gives kappa = -1/2
        p = DecayProfile(1.0, 1.0, constant_rate=1.0)
        out = analytic_oracle(InitialState(math.pi / 8, math.pi / 5), p, 1.0)
        expected = math.cos(math.pi / 8) * math.sin(math.pi / 8) * math.exp(-0.5)
        assert abs(out[0, 1]) == pytest.approx(expected, abs=1e-9)
        assert abs(out[0, 1]) == pytest.approx(0.214441, abs=1e-5)

    def test_independent_of_the_quadrature(self, monkeypatch):
        states = run_single(FIG4_INIT, FIG4_PROFILE, TimeGrid(4, 30))

        def broken(*args):
            raise AssertionError("the analytic oracle reached the quadrature")
        monkeypatch.setattr(dynamics, "kappa", broken)
        monkeypatch.setattr(dynamics, "_decay_integral", broken)
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


class TestLindbladOracle:
    def test_unitary_limit(self):
        p = DecayProfile(1.0, 1.0, constant_rate=0.0)
        init = InitialState(0.4, 0.9)
        out = lindblad_oracle(init, p, 3.0, 1e-3)
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
        p = DecayProfile(1.0, 1.0, constant_rate=400.0)
        with pytest.raises(IntegrationError):
            lindblad_oracle(InitialState(0.0, 0.0), p, 10.0, 0.5)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            lindblad_oracle(FIG4_INIT, FIG4_PROFILE, 1.0, 0.0)

    def test_rate_table_matches_decay_rate(self, rng):
        # the RK4 propagators take their rates from one decay_rate call over
        # an (n, 3) table of times; each entry is the per-time scalar call
        h = 0.37
        starts = np.sort(rng.uniform(0.0, 50.0, size=400))
        times = starts[:, None] + [0.0, 0.5 * h, h]
        for p in (FIG4_PROFILE, DecayProfile(2.3, 3.7)):
            table = decay_rate(times, p)
            ref = np.array([[decay_rate(t, p) for t in row] for row in times.tolist()])
            assert table.shape == (400, 3)
            assert table.tobytes() == ref.tobytes()

    def test_rate_table_exact_for_constant_rate(self):
        p = DecayProfile(1.0, 1.0, constant_rate=0.123)
        table = decay_rate(np.arange(5)[:, None] * 0.1 + [0.0, 0.05, 0.1], p)
        assert table.dtype == float
        assert np.array_equal(table, np.full((5, 3), 0.123))
        assert decay_rate(2.5, p) == 0.123


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

    def test_constant_rate_range(self):
        for rate in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                DecayProfile(0.1, 1.0, constant_rate=rate)
        assert DecayProfile(0.1, 1.0, constant_rate=0.0).constant_rate == 0.0

    def test_initial_state_ranges(self):
        with pytest.raises(ValueError):
            InitialState(-0.1, 0.0)
        with pytest.raises(ValueError):
            InitialState(0.3, 7.0)

    def test_initial_state_norm(self):
        psi = InitialState(0.7, 1.3).ket()
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-14)


# The per-qubit trajectory loops as they stood before run_single and
# run_coupled shared one stepper. The stepper performs the same floating-point
# operations in the same order, so it must reproduce them bit for bit.

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
        pair1 = damping_kraus(min(k1[i], 0.0))
        pair2 = damping_kraus(min(k2[i], 0.0))
        stepped = np.zeros((4, 4), dtype=complex)
        for e in (pair1.e0, pair1.e1):
            for f in (pair2.e0, pair2.e1):
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
        assert np.array_equal(s.rho, r.rho)


def assert_stack_identical(rhos, reference):
    """A stepped (n_steps+1, d, d) stack against a reference loop's states."""
    assert rhos.shape[0] == len(reference)
    assert np.array_equal(rhos, np.stack([state.rho for state in reference]))


initial_states = st.builds(InitialState, st.floats(0.0, math.pi / 2),
                           st.floats(0.0, 6.28))
grids = st.builds(TimeGrid, st.integers(1, 2), st.integers(8, 16))


def profiles(omega):
    """The oscillating profile or a constant rate, zero included."""
    return st.one_of(
        st.builds(DecayProfile, st.floats(0.01, 1.0), st.just(omega)),
        st.floats(0.0, 2.0).map(
            lambda r: DecayProfile(1.0, omega, constant_rate=r)))


couplings = st.builds(InteractionSpec, st.sampled_from(ops.INTERACTION_KINDS),
                      st.sampled_from("xyz"), st.floats(-math.pi, math.pi))


class TestStepperMatchesReferenceLoops:
    @given(data=st.data(), init=initial_states, grid=grids,
           omega=st.floats(0.5, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_single(self, data, init, grid, omega):
        p = data.draw(profiles(omega))
        assert_identical(run_single(init, p, grid), reference_single(init, p, grid))

    @given(data=st.data(), init1=initial_states, init2=initial_states,
           grid=grids, omega=st.floats(0.5, 2.0), spec=couplings)
    @settings(max_examples=60, deadline=None)
    def test_coupled(self, data, init1, init2, grid, omega, spec):
        p1 = data.draw(profiles(omega))
        p2 = data.draw(profiles(omega))
        rhos = run_coupled(init1, init2, p1, p2, grid, [spec])
        assert_stack_identical(rhos[0], reference_coupled(init1, init2, p1, p2, grid, spec))

    @given(data=st.data(), init1=initial_states, init2=initial_states,
           grid=grids, omega=st.floats(0.5, 2.0), spec=couplings,
           deltas=st.lists(st.one_of(st.floats(-math.pi, math.pi),
                                     st.sampled_from((0.0, 0.25, -1.5))),
                           min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
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
