import numpy as np
import pytest

from qmemristor.errors import DimensionError, StateError
from qmemristor.linalg import partial_trace, require_density_matrix
from qmemristor.ops import IDENTITY_2

from conftest import random_density_matrix

KET_E = np.array([1.0, 0.0], dtype=complex)
KET_G = np.array([0.0, 1.0], dtype=complex)


class TestPartialTrace:
    def test_product_state(self, rng):
        rho1 = random_density_matrix(rng)
        rho2 = random_density_matrix(rng)
        joint = np.kron(rho1, rho2)
        assert np.allclose(partial_trace(joint, 1), rho1)
        assert np.allclose(partial_trace(joint, 2), rho2)

    def test_bell_state_marginals(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        for keep in (1, 2):
            assert np.allclose(partial_trace(rho, keep), IDENTITY_2 / 2)

    def test_basis_projector(self):
        # |01><01|: qubit 1 in |e>, qubit 2 in |g>
        ket = np.kron(KET_E, KET_G)
        rho = np.outer(ket, ket.conj())
        assert np.allclose(partial_trace(rho, 2), np.outer(KET_G, KET_G.conj()))

    def test_trace_preserved(self, rng):
        for _ in range(1000):
            rho = random_density_matrix(rng, 4)
            t1 = partial_trace(rho, 1).trace()
            t2 = partial_trace(rho, 2).trace()
            assert abs(t1 - rho.trace()) < 1e-12
            assert abs(t2 - rho.trace()) < 1e-12

    def test_bad_subsystem(self, rng):
        with pytest.raises(ValueError):
            partial_trace(random_density_matrix(rng, 4), 3)


class TestDensityMatrixValidation:
    def test_accepts_valid(self, rng):
        require_density_matrix(random_density_matrix(rng, 4), 4)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.2, 0.5]], dtype=complex)
        with pytest.raises(StateError):
            require_density_matrix(bad)

    def test_rejects_bad_trace(self):
        with pytest.raises(StateError):
            require_density_matrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        bad = np.array([[1.2, 0], [0, -0.2]], dtype=complex)
        with pytest.raises(StateError):
            require_density_matrix(bad)

    def test_rejects_wrong_dim(self, rng):
        with pytest.raises(DimensionError):
            require_density_matrix(random_density_matrix(rng, 2), 4)
