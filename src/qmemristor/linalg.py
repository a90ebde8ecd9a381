"""Dense complex matrix kernel for the 2- and 4-dimensional states used here.

Everything is a plain ``numpy.ndarray`` with complex entries; the helpers in
this module add the shape checks and density-matrix validation the rest of
the package relies on.

Basis convention: within one qubit block, index 0 is the excited state |e>
and index 1 the ground state |g>. For two qubits the composite index is
2*(qubit-1 index) + (qubit-2 index), i.e. the left Kronecker factor varies
slowest.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, StateError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def dagger(m) -> np.ndarray:
    """Conjugate transpose over the last two axes (a stack transposes each matrix)."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def require_density_matrix(rho: np.ndarray, dim: int | None = None,
                           context: str = "") -> np.ndarray:
    """Validate hermiticity, unit trace and positivity of a state or a stack of them.

    Tolerances: hermiticity 1e-12 (max entry deviation), trace 1e-10,
    eigenvalues >= -1e-10; a NaN fails each of them. Once the hermiticity
    and trace checks pass for every state, one batched Cholesky
    factorization of ``rho + 1e-10 * I`` accepts the input: it succeeds
    when every eigenvalue lies above the floor, and the two tests can
    disagree only within rounding of the floor. When it fails, or a cheaper
    check failed, a batched eigvalsh finds and names the first bad state,
    so every rejection comes from eigvalsh. A stack of shape (n, d, d)
    raises the error the per-state call would raise for its first bad
    state, with "step k" (1-based) added to the context.
    """
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
    # every tolerance test is written so that NaN fails it
    failed = ~((herm_dev <= HERMITICITY_TOL) & (trace_dev <= TRACE_TOL))
    if not failed.any():
        try:
            np.linalg.cholesky(stack - EIGENVALUE_FLOOR * np.eye(stack.shape[-1]))
        except np.linalg.LinAlgError:
            pass  # eigvalsh below names the bad state
        else:
            return rho
    cut = int(np.argmax(failed)) if failed.any() else len(stack)
    # state by state, the eigenvalue check never runs past the first state
    # that fails a cheaper check
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


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Reduced state of one qubit of a two-qubit density matrix, or of each in a stack.

    ``keep`` is 1 for the first (slow-index) qubit, 2 for the second.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise DimensionError(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep!r}")
    blocks = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if keep == 1:
        return np.einsum("...ikjk->...ij", blocks)
    return np.einsum("...kikj->...ij", blocks)

