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
    return np.asarray(m).conj().T


def require_density_matrix(rho: np.ndarray, dim: int | None = None,
                           context: str = "") -> np.ndarray:
    """Validate hermiticity, unit trace and positivity of a state.

    Tolerances: hermiticity 1e-12 (max entry deviation), trace 1e-10,
    eigenvalues >= -1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    where = f" ({context})" if context else ""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] not in (2, 4):
        raise DimensionError(f"density matrix must be 2x2 or 4x4, got {rho.shape}{where}")
    if dim is not None and rho.shape[0] != dim:
        raise DimensionError(f"expected a {dim}-dimensional state, got {rho.shape}{where}")
    herm_dev = np.abs(rho - rho.conj().T).max()
    if herm_dev > HERMITICITY_TOL:
        raise StateError(f"state not Hermitian: max deviation {herm_dev:.3e}{where}")
    trace_dev = abs(rho.trace() - 1.0)
    if trace_dev > TRACE_TOL:
        raise StateError(f"state trace deviates from 1 by {trace_dev:.3e}{where}")
    lowest = np.linalg.eigvalsh(rho).min()
    if lowest < EIGENVALUE_FLOOR:
        raise StateError(f"state has eigenvalue {lowest:.3e} below floor{where}")
    return rho


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Reduced state of one qubit of a two-qubit density matrix.

    ``keep`` is 1 for the first (slow-index) qubit, 2 for the second.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionError(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep!r}")
    blocks = rho.reshape(2, 2, 2, 2)
    if keep == 1:
        return np.einsum("ikjk->ij", blocks)
    return np.einsum("kikj->ij", blocks)

