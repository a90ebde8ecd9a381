import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemristor.errors import DimensionError, StateError
from qmemristor.linalg import (EIGENVALUE_FLOOR, HERMITICITY_TOL, TRACE_TOL, dagger,
                               partial_trace, require_density_matrix)
from qmemristor.ops import IDENTITY_2
from qmemristor.presets import PRESET_NAMES

from conftest import (STATE_KINDS, preset_trajectory, random_density_matrix,
                      random_state_stack, random_unitary)

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

    @pytest.mark.parametrize("bad", [
        np.full((2, 2), np.nan),
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
        np.full((3, 4, 4), np.nan),
    ], ids=["all_nan", "nan_coherence", "nan_stack"])
    def test_rejects_nan(self, bad):
        # every `x > tol` comparison is False for NaN
        with pytest.raises(StateError, match="not Hermitian: max deviation nan"):
            require_density_matrix(bad)


def _bad_state(kind, dim):
    """A state that fails exactly the named check (and every later one may pass)."""
    if kind == "hermitian":
        bad = np.eye(dim, dtype=complex) / dim
        bad[0, 1] = 0.1
        return bad
    if kind == "trace":
        return np.eye(dim, dtype=complex)
    bad = np.diag([1.2] + [0.0] * (dim - 2) + [-0.2]).astype(complex)
    return bad


def _per_state_message(rho, dim, context):
    with pytest.raises(StateError) as err:
        require_density_matrix(rho, dim, context=context)
    return str(err.value)


class TestDensityMatrixStack:
    def test_accepts_valid_stack(self, rng):
        stack = np.stack([random_density_matrix(rng, 4) for _ in range(5)])
        assert require_density_matrix(stack, 4) is stack

    @pytest.mark.parametrize("kind", ["hermitian", "trace", "eigenvalue"])
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_names_the_bad_step_like_the_per_state_call(self, rng, kind, dim, k):
        stack = np.stack([random_density_matrix(rng, dim) for _ in range(7)])
        stack[k] = _bad_state(kind, dim)
        with pytest.raises(StateError) as err:
            require_density_matrix(stack, dim, context="run")
        assert str(err.value) == _per_state_message(stack[k], dim, f"run, step {k + 1}")

    def test_without_context(self, rng):
        stack = np.stack([random_density_matrix(rng) for _ in range(3)])
        stack[1] = _bad_state("trace", 2)
        with pytest.raises(StateError, match=r"\(step 2\)$"):
            require_density_matrix(stack)

    @pytest.mark.parametrize("first, later", [("eigenvalue", "hermitian"),
                                              ("hermitian", "eigenvalue"),
                                              ("trace", "hermitian")])
    def test_first_bad_step_wins(self, rng, first, later):
        stack = np.stack([random_density_matrix(rng, 4) for _ in range(6)])
        stack[2] = _bad_state(first, 4)
        stack[4] = _bad_state(later, 4)
        with pytest.raises(StateError) as err:
            require_density_matrix(stack, 4, context="run")
        assert str(err.value) == _per_state_message(stack[2], 4, "run, step 3")

    def test_check_order_within_a_state(self, rng):
        # not Hermitian, off trace and with a negative eigenvalue at once:
        # the hermiticity check reports first, as it does for one state
        bad = np.diag([1.5, -0.2]).astype(complex)
        bad[0, 1] = 0.3
        stack = np.stack([random_density_matrix(rng), bad])
        with pytest.raises(StateError, match="not Hermitian") as err:
            require_density_matrix(stack, 2, context="run")
        assert str(err.value) == _per_state_message(bad, 2, "run, step 2")

    @pytest.mark.parametrize("shape", [(3, 3, 3), (3, 2, 4), (2, 2, 2, 2), (3, 2)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(DimensionError, match="must be 2x2 or 4x4"):
            require_density_matrix(np.zeros(shape, dtype=complex))

    def test_rejects_wrong_dim(self, rng):
        stack = np.stack([random_density_matrix(rng) for _ in range(3)])
        with pytest.raises(DimensionError, match=r"expected a 4-dimensional state, got \(3, 2, 2\)"):
            require_density_matrix(stack, 4)


class TestPartialTraceStack:
    def test_equals_per_state_calls(self, rng):
        stack = np.stack([random_density_matrix(rng, 4) for _ in range(10)])
        for keep in (1, 2):
            reduced = partial_trace(stack, keep)
            assert reduced.shape == (10, 2, 2)
            expected = np.stack([partial_trace(r, keep) for r in stack])
            assert reduced.tobytes() == expected.tobytes()


def reference_require_density_matrix(rho, dim=None, context=""):
    """The validation with eigvalsh alone, the decision the Cholesky
    acceptance of `require_density_matrix` must reproduce."""
    rho = np.asarray(rho, dtype=complex)
    where = f" ({context})" if context else ""
    if (rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]
            or rho.shape[-1] not in (2, 4)):
        raise DimensionError(f"density matrix must be 2x2 or 4x4, got {rho.shape}{where}")
    if dim is not None and rho.shape[-1] != dim:
        raise DimensionError(f"expected a {dim}-dimensional state, got {rho.shape}{where}")
    stack = rho if rho.ndim == 3 else rho[None]
    herm_dev = np.abs(stack - dagger(stack)).max(axis=(1, 2))
    trace_dev = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    failed = ~((herm_dev <= HERMITICITY_TOL) & (trace_dev <= TRACE_TOL))
    cut = int(np.argmax(failed)) if failed.any() else len(stack)
    lowest = np.linalg.eigvalsh(stack[:cut]).min(axis=1)
    negative = ~(lowest >= EIGENVALUE_FLOOR)
    first = int(np.argmax(negative)) if negative.any() else cut
    if first == len(stack):
        return rho
    if rho.ndim == 3:
        where = f" ({context}, step {first + 1})" if context else f" (step {first + 1})"
    if not herm_dev[first] <= HERMITICITY_TOL:
        raise StateError(f"state not Hermitian: max deviation {herm_dev[first]:.3e}{where}")
    if not trace_dev[first] <= TRACE_TOL:
        raise StateError(f"state trace deviates from 1 by {trace_dev[first]:.3e}{where}")
    raise StateError(f"state has eigenvalue {lowest[first]:.3e} below floor{where}")


def floor_state(rng, dim, offset):
    """A random state whose lowest eigenvalue is EIGENVALUE_FLOOR + offset, to rounding."""
    lams = rng.uniform(0.1, 1.0, size=dim)
    lams[0] = EIGENVALUE_FLOOR + offset
    lams[1:] *= (1.0 - lams[0]) / lams[1:].sum()
    u = random_unitary(rng, dim)
    return (u * lams) @ u.conj().T


def defect_state(rng, defect, dim):
    """A state with one defect, or one just either side of the eigenvalue floor."""
    if defect == "below_floor":
        return floor_state(rng, dim, -1e-13)
    if defect == "above_floor":
        return floor_state(rng, dim, 1e-13)
    bad = random_state_stack(rng, "mixed", 1, dim)[0]
    if defect == "nan":
        bad[rng.integers(dim), rng.integers(dim)] = np.nan
    elif defect == "hermitian":
        bad[0, 1] += 1e-9
    else:
        bad *= 1.0 + 1e-9
    return bad


def outcome(validate, rho):
    """What a validation does with ``rho``: accept it, or raise a named error."""
    try:
        accepted = validate(rho, context="run")
    except (StateError, DimensionError) as err:
        return type(err), str(err)
    assert accepted is rho
    return "accepted"


DEFECTS = ["nan", "hermitian", "trace", "below_floor", "above_floor"]


class TestCholeskyAcceptanceMatchesEigvalsh:
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(STATE_KINDS),
           dim=st.sampled_from([2, 4]), n=st.integers(1, 12),
           defect=st.sampled_from([None] + DEFECTS),
           at=st.sampled_from(["first", "middle", "last"]), single=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_decision_and_message(self, seed, kind, dim, n, defect, at, single):
        rng = np.random.default_rng(seed)
        stack = random_state_stack(rng, kind, n, dim)
        k = {"first": 0, "middle": n // 2, "last": n - 1}[at]
        if defect is not None:
            stack[k] = defect_state(rng, defect, dim)
        rho = stack[k] if single else stack
        assert outcome(require_density_matrix, rho) == outcome(
            reference_require_density_matrix, rho)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("offset, accepted", [(1e-13, True), (-1e-13, False)])
    def test_floor_give_or_take_1e_13(self, rng, dim, offset, accepted):
        for _ in range(200):
            rho = floor_state(rng, dim, offset)
            assert outcome(require_density_matrix, rho) == outcome(
                reference_require_density_matrix, rho)
            assert (outcome(require_density_matrix, rho) == "accepted") == accepted

    @pytest.mark.parametrize("kind", STATE_KINDS)
    @pytest.mark.parametrize("dim", [2, 4])
    def test_valid_states_need_no_eigvalsh(self, rng, monkeypatch, kind, dim):
        # the factorization alone accepts states on the floor's safe side,
        # pure states (eigenvalue 0) and those 1e-13 above the floor included
        stacks = [random_state_stack(rng, kind, 50, dim),
                  np.stack([floor_state(rng, dim, 1e-13) for _ in range(50)])]
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
        for stack in stacks:
            single = stack[0]
            assert require_density_matrix(stack) is stack
            assert require_density_matrix(single) is single

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_trajectories_need_no_eigvalsh(self, monkeypatch, name):
        states = preset_trajectory(name)
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
        assert require_density_matrix(states, context="run") is states


def _no_eigvalsh(*args, **kwargs):
    raise AssertionError("eigvalsh called on states the Cholesky check should accept")
