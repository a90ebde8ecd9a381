import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmemristor.linalg import dagger
from qmemristor.ops import (IDENTITY_2, IDENTITY_4, SIGMA_X, SIGMA_Y,
                            InteractionSpec, apply_channel, apply_interaction,
                            collision_step, damping_amplitudes, damping_kraus,
                            frame_to_schroedinger, interaction_unitary,
                            rotation)

from conftest import random_density_matrix

ALL_SPECS = [
    InteractionSpec("none"),
    InteractionSpec("native", "x", 0.3),
    InteractionSpec("native", "y", 0.3),
    InteractionSpec("native", "z", 0.3),
    InteractionSpec("controlled_rotation", "x", 0.3),
    InteractionSpec("controlled_rotation", "y", 0.3),
    InteractionSpec("controlled_rotation", "z", 0.3),
    InteractionSpec("partial_swap", delta=0.3),
]


def completeness_defect(kraus):
    """Largest entry of |sum_k E_k^dag E_k - I| over a Kraus stack."""
    return np.abs((dagger(kraus) @ kraus).sum(axis=-3) - IDENTITY_2).max()


class TestDampingKraus:
    def test_identity_channel(self):
        kraus = damping_kraus(0.0)
        assert kraus.shape == (2, 2, 2)
        assert np.allclose(kraus[0], IDENTITY_2)
        assert np.allclose(kraus[1], 0.0)

    def test_half_population(self):
        # e^{2 kappa} = 1/2
        e0, e1 = damping_kraus(math.log(1 / math.sqrt(2)))
        assert np.allclose(np.diag(e0), [math.sqrt(0.5), 1.0])
        assert e1[1, 0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        # E0 is diagonal and E1 moves |e> (index 0) to |g> (index 1)
        assert e0[0, 1] == e0[1, 0] == 0.0
        assert e1[0, 0] == e1[0, 1] == e1[1, 1] == 0.0

    def test_completeness_sample(self):
        assert completeness_defect(damping_kraus(-1.2566)) <= 1e-12

    def test_completeness_random(self, rng):
        kappas = rng.uniform(-10.0, 0.0, size=1000)
        for kappa in kappas:
            assert completeness_defect(damping_kraus(kappa)) <= 1e-12
        assert completeness_defect(damping_kraus(kappas)) <= 1e-12

    def test_rejects_positive_kappa(self):
        with pytest.raises(ValueError):
            damping_kraus(0.01)

    @pytest.mark.parametrize("kappa", [math.nan, -math.nan], ids=["nan", "minus_nan"])
    def test_rejects_nan_kappa(self, kappa):
        # `k > 0` is False for NaN; the operators must not come out NaN
        with pytest.raises(ValueError, match="kappa must be <= 0, got nan"):
            damping_kraus(kappa)

    def test_array_equals_scalar_calls(self, rng):
        kappas = np.concatenate([rng.uniform(-10.0, 0.0, size=3000),
                                 [0.0, -0.0, -1e-300, -745.0, -800.0]])
        kraus = damping_kraus(kappas)
        assert kraus.shape == (kappas.size, 2, 2, 2)
        for k, ops in zip(kappas.tolist(), kraus):
            assert ops.tobytes() == damping_kraus(k).tobytes()
            # and the formula in Python floats: numpy's exp would differ
            # from math.exp in the last bit for some kappas
            amp = math.exp(k)
            formula = np.array([[[amp, 0.0], [0.0, 1.0]],
                                [[0.0, 0.0], [math.sqrt(1.0 - amp * amp), 0.0]]],
                               dtype=complex)
            assert ops.tobytes() == formula.tobytes()

    def test_array_rejects_any_positive_entry(self):
        kappas = np.full(10, -0.5)
        kappas[7] = 1e-3
        with pytest.raises(ValueError, match="kappa must be <= 0, got 0.001"):
            damping_kraus(kappas)

    def test_array_rejects_any_nan_entry(self):
        kappas = np.full(10, -0.5)
        kappas[7] = np.nan
        with pytest.raises(ValueError, match="kappa must be <= 0, got nan"):
            damping_kraus(kappas)


class TestDampingAmplitudes:
    def test_are_the_kraus_entries(self, rng):
        # a and s, float arrays in kappa's shape, carry the bits of E0[0, 0]
        # and E1[1, 0], the real parts of the stack built from them
        kappas = np.concatenate([rng.uniform(-10.0, 0.0, size=300),
                                 [0.0, -0.0, -1e-300, -745.0, -800.0]]).reshape(5, -1)
        a, s = damping_amplitudes(kappas)
        kraus = damping_kraus(kappas)
        assert a.dtype == s.dtype == np.float64
        assert a.shape == s.shape == kappas.shape
        assert a.tobytes() == kraus.real[..., 0, 0, 0].tobytes()
        assert s.tobytes() == kraus.real[..., 1, 1, 0].tobytes()
        assert a.tobytes() == np.array([math.exp(k) for k in kappas.ravel().tolist()]).tobytes()

    @pytest.mark.parametrize("kappa", [1e-3, math.nan])
    def test_rejects_a_kappa_above_zero_or_nan(self, kappa):
        with pytest.raises(ValueError, match="kappa must be <= 0"):
            damping_amplitudes(np.array([-0.5, kappa]))


class TestApplyChannel:
    def test_ground_state_fixed_point(self, rng):
        ground = np.diag([0.0, 1.0]).astype(complex)
        for kappa in rng.uniform(-5.0, 0.0, size=20):
            assert np.allclose(apply_channel(ground, damping_kraus(kappa)), ground)

    def test_excited_state_populations(self):
        excited = np.diag([1.0, 0.0]).astype(complex)
        out = apply_channel(excited, damping_kraus(math.log(1 / math.sqrt(2))))
        assert np.allclose(out, np.diag([0.5, 0.5]))

    def test_pure_state_closed_form(self):
        # cos(a)|e> + sin(a)e^{ib}|g>: populations scale by e^{2k}, the
        # coherence <e|rho|g> = cos a sin a e^{-ib} scales by e^{k}
        a, b, kappa = 0.7, 2.1, -0.8
        psi = np.array([math.cos(a), math.sin(a) * np.exp(1j * b)])
        out = apply_channel(np.outer(psi, psi.conj()), damping_kraus(kappa))
        amp = math.exp(kappa)
        ce = math.cos(a) * amp
        expected = np.array([
            [ce ** 2, math.cos(a) * math.sin(a) * np.exp(-1j * b) * amp],
            [math.cos(a) * math.sin(a) * np.exp(1j * b) * amp, 1 - ce ** 2],
        ])
        assert np.abs(out - expected).max() < 1e-12

    def test_trace_and_positivity(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng)
            out = apply_channel(rho, damping_kraus(rng.uniform(-4, 0)))
            assert abs(out.trace() - 1) < 1e-10
            assert np.linalg.eigvalsh(out).min() > -1e-9


class TestCollisionStep:
    def test_identity_at_zero_angle(self, rng):
        rho = random_density_matrix(rng)
        assert np.abs(collision_step(rho, 0.0) - rho).max() < 1e-12

    def test_excited_state_at_pi_over_3(self):
        # cos^2(pi/3) = 1/4 stays excited
        excited = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(collision_step(excited, math.pi / 3),
                           np.diag([0.25, 0.75]))

    def test_matches_kraus_path(self, rng):
        for _ in range(1000):
            rho = random_density_matrix(rng)
            theta = rng.uniform(0.0, math.pi / 2 * 0.9999)
            kappa = math.log(math.cos(theta))
            direct = apply_channel(rho, damping_kraus(kappa))
            assert np.abs(collision_step(rho, theta) - direct).max() <= 1e-12

    def test_rejects_out_of_range(self, rng):
        with pytest.raises(ValueError):
            collision_step(random_density_matrix(rng), -0.1)
        with pytest.raises(ValueError):
            collision_step(random_density_matrix(rng), math.pi)


class TestFrameRotation:
    def test_time_zero_identity(self):
        assert frame_to_schroedinger(0.3, -0.4, 0.0, 1.0) == (0.3, -0.4)

    def test_full_period(self):
        sx, sy = frame_to_schroedinger(0.3, -0.4, 2 * math.pi, 1.0)
        assert sx == pytest.approx(0.3, abs=1e-12)
        assert sy == pytest.approx(-0.4, abs=1e-12)

    def test_quarter_period(self):
        # sign convention pinned by the Lindblad oracle (see test_dynamics)
        sx, sy = frame_to_schroedinger(1.0, 0.0, math.pi / 2, 1.0)
        assert sx == pytest.approx(0.0, abs=1e-12)
        assert sy == pytest.approx(1.0, abs=1e-12)

    @given(sx=st.floats(-1, 1), sy=st.floats(-1, 1),
           t=st.floats(0, 100), omega=st.floats(0.1, 10))
    def test_preserves_transverse_norm(self, sx, sy, t, omega):
        ox, oy = frame_to_schroedinger(sx, sy, t, omega)
        assert ox * ox + oy * oy == pytest.approx(sx * sx + sy * sy, abs=1e-12)

    def test_vectorized(self):
        t = np.linspace(0, 5, 7)
        sx, sy = frame_to_schroedinger(np.full(7, 0.5), np.zeros(7), t, 2.0)
        assert np.allclose(sx, 0.5 * np.cos(2 * t))
        assert np.allclose(sy, 0.5 * np.sin(2 * t))


class TestInteractionUnitary:
    @pytest.mark.parametrize("spec", [
        InteractionSpec("native", "x", 0.0),
        InteractionSpec("native", "y", 0.0),
        InteractionSpec("controlled_rotation", "z", 0.0),
        InteractionSpec("partial_swap", delta=0.0),
        InteractionSpec("none"),
    ])
    def test_zero_angle_is_identity(self, spec):
        assert np.allclose(interaction_unitary(spec), IDENTITY_4)

    def test_native_z_phases(self):
        d = 0.37
        u = interaction_unitary(InteractionSpec("native", "z", d))
        phases = np.exp(1j * np.array([-d, d, d, -d]))
        assert np.allclose(u, np.diag(phases))

    def test_partial_swap_quarter_turn(self):
        # full exchange at delta = pi/2: |eg> <-> |ge| up to a local phase
        u = interaction_unitary(InteractionSpec("partial_swap", delta=math.pi / 2))
        expected = np.eye(4, dtype=complex)
        expected[1:3, 1:3] = [[0, -1j], [-1j, 0]]
        assert np.allclose(u, expected)
        assert np.allclose(np.abs(u[1, 2]), 1.0)

    def test_partial_swap_matches_exchange_generator(self):
        gen = 0.5 * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y))
        evals, vecs = np.linalg.eigh(gen)
        for d in (0.2, 0.9, -1.3):
            direct = (vecs * np.exp(-1j * d * evals)) @ vecs.conj().T
            u = interaction_unitary(InteractionSpec("partial_swap", delta=d))
            assert np.abs(u - direct).max() < 1e-12

    def test_controlled_rotation_structure(self):
        d = 0.8
        u = interaction_unitary(InteractionSpec("controlled_rotation", "y", d))
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = rotation("y", d)
        expected[2:, 2:] = IDENTITY_2
        assert np.allclose(u, expected)

    def test_unitarity_random_angles(self, rng):
        kinds = [("native", "x"), ("native", "y"), ("native", "z"),
                 ("controlled_rotation", "x"), ("partial_swap", "y")]
        for kind, axis in kinds:
            for d in rng.uniform(-math.pi, math.pi, size=200):
                u = interaction_unitary(InteractionSpec(kind, axis, float(d)))
                assert np.abs(dagger(u) @ u - IDENTITY_4).max() <= 1e-12


class TestApplyInteraction:
    def test_zero_delta_is_identity(self, rng):
        rho = random_density_matrix(rng, 4)
        out = apply_interaction(rho, InteractionSpec("native", "y", 0.0))
        assert np.abs(out - rho).max() < 1e-12

    def test_bell_generation(self):
        from qmemristor.analysis import concurrence
        ee = np.zeros((4, 4), dtype=complex)
        ee[0, 0] = 1.0
        out = apply_interaction(ee, InteractionSpec("native", "y", math.pi / 4))
        assert concurrence(out) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_adjoint_is_negated_angle(self, spec):
        u = interaction_unitary(spec)
        flipped = InteractionSpec(spec.kind, spec.axis, -spec.delta)
        assert np.abs(dagger(u) - interaction_unitary(flipped)).max() < 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_paper_vs_standard_convention(self, spec, rng):
        # the paper's A^dag rho A is the standard ordering A rho A^dag at -delta
        rho = random_density_matrix(rng, 4)
        a = interaction_unitary(InteractionSpec(spec.kind, spec.axis, -spec.delta))
        standard = a @ rho @ dagger(a)
        assert np.abs(apply_interaction(rho, spec) - standard).max() < 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_preserves_state_invariants(self, spec, rng):
        for _ in range(50):
            out = apply_interaction(random_density_matrix(rng, 4), spec)
            assert abs(out.trace() - 1) < 1e-10
            assert np.linalg.eigvalsh(out).min() >= -1e-9


class TestInteractionSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            InteractionSpec("cnot")

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            InteractionSpec("native", "w", 0.1)

    def test_nonfinite_delta(self):
        with pytest.raises(ValueError):
            InteractionSpec("native", "y", math.nan)
