"""Gate and channel catalog.

Pauli operators, single-qubit rotations, the amplitude-damping Kraus operators
and their collision-circuit realization, two-qubit coupling unitaries, and the
rotating-frame conversion of transverse Bloch components.

Basis ordering follows :mod:`qmemristor.linalg`: |e> = index 0, |g> = index 1,
so sigma_z |e> = +|e> and sigma_minus maps |e> to |g>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import dagger, partial_trace

IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
PROJ_E = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PROJ_G = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

INTERACTION_KINDS = ("none", "native", "controlled_rotation", "partial_swap")


def rotation(axis: str, angle: float) -> np.ndarray:
    """Half-angle rotation exp(-i*angle*sigma_axis/2)."""
    sigma = PAULI[axis]
    return math.cos(angle / 2) * IDENTITY_2 - 1j * math.sin(angle / 2) * sigma


def damping_amplitudes(kappa) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-damping amplitudes (a, s) for log-amplitude kappa <= 0.

    E0 = diag(a, 1) keeps the excited amplitude scaled by a = e^kappa, and
    E1 = s|g><e| with s = sqrt(1 - a^2) moves the lost population to the
    ground state. Both are float arrays in kappa's shape. An array of
    kappas gives entries equal to the scalar calls': e^kappa comes from
    math.exp, because numpy's exp can differ from it in the last bit.
    """
    k = np.asarray(kappa, dtype=float)
    bad = k[~(k <= 0)]  # NaN fails k <= 0 as well
    if bad.size:
        raise ValueError(f"kappa must be <= 0, got {bad[0]}")
    amp = np.array([math.exp(x) for x in k.ravel().tolist()]).reshape(k.shape)
    return amp, np.sqrt(1.0 - amp * amp)


def damping_kraus(kappa) -> np.ndarray:
    """Amplitude-damping Kraus operators for log-amplitude kappa <= 0.

    One stack of shape kappa.shape + (2, 2, 2) built from
    `damping_amplitudes`: [..., 0, :, :] is E0 and [..., 1, :, :] is E1,
    and E0^dag E0 + E1^dag E1 = I holds to 1e-12.
    """
    amp, s = damping_amplitudes(kappa)
    kraus = np.zeros(amp.shape + (2, 2, 2), dtype=complex)
    kraus[..., 0, 0, 0] = amp
    kraus[..., 0, 1, 1] = 1.0
    kraus[..., 1, 1, 0] = s
    return kraus


def apply_channel(rho: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """E0 rho E0^dag + E1 rho E1^dag for a `damping_kraus` stack."""
    e0, e1 = np.moveaxis(kraus, -3, 0)
    return e0 @ rho @ dagger(e0) + e1 @ rho @ dagger(e1)


def collision_step(rho: np.ndarray, theta: float) -> np.ndarray:
    """One damping collision realized as an explicit two-qubit circuit.

    A fresh ancilla |0> is rotated by Ry(2*theta) conditioned on the system
    being excited, then an ancilla-controlled NOT de-excites the system; the
    ancilla is traced out. Equals the Kraus channel with kappa = ln(cos theta).
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionError(f"collision_step expects a 2x2 state, got {rho.shape}")
    ry = rotation("y", 2.0 * theta)
    cry = np.kron(PROJ_E, ry) + np.kron(PROJ_G, IDENTITY_2)
    # ancilla (fast index) controls, system (slow index) is the target
    anc0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    anc1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    cnot = np.kron(IDENTITY_2, anc0) + np.kron(SIGMA_X, anc1)
    u = cnot @ cry
    joint = np.kron(rho, anc0)
    return partial_trace(u @ joint @ dagger(u), keep=1)


def frame_to_schroedinger(sx_i: float, sy_i: float, t: float,
                          omega: float) -> tuple[float, float]:
    """Rotate interaction-picture transverse Bloch components into the lab frame.

    The free evolution omega*sigma_z/2 advances the transverse components by
    the angle omega*t about z. Accepts scalars or numpy arrays.
    """
    c = np.cos(omega * t)
    s = np.sin(omega * t)
    return c * sx_i - s * sy_i, s * sx_i + c * sy_i


@dataclass(frozen=True)
class InteractionSpec:
    """Choice of the two-qubit coupling applied after each evolution step.

    kind 'native' is exp(-i*delta*sigma_axis (x) sigma_axis); a controlled
    rotation conditions a half-angle rotation of qubit 2 on qubit 1 being
    excited; 'partial_swap' is the exchange family
    exp(-i*delta*(sigma_x(x)sigma_x + sigma_y(x)sigma_y)/2), which reaches a
    full swap (up to local phases) at delta = pi/2. A power of the SWAP
    matrix itself would commute with every permutation-symmetric state and
    therefore could not couple identically prepared memristors at all.
    A step conjugates the state as A^dag rho A, the paper's ordering; the
    ordering A rho A^dag is the same run at -delta, and qubit 2 as the
    control is the same run with the two qubits' parameters swapped.
    """
    kind: str = "none"
    axis: str = "y"
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in INTERACTION_KINDS:
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be x, y or z, got {self.axis!r}")
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")


def interaction_unitary(spec: InteractionSpec) -> np.ndarray:
    """4x4 unitary for the configured coupling gate."""
    d = spec.delta
    if spec.kind == "none":
        return IDENTITY_4.copy()
    if spec.kind == "native":
        sigma = PAULI[spec.axis]
        # (sigma (x) sigma)^2 = I, so the exponential closes in two terms
        return math.cos(d) * IDENTITY_4 - 1j * math.sin(d) * np.kron(sigma, sigma)
    if spec.kind == "partial_swap":
        # exchange generator acts only on the |eg>, |ge> block
        gate = IDENTITY_4.copy()
        gate[1:3, 1:3] = np.array([[math.cos(d), -1j * math.sin(d)],
                                   [-1j * math.sin(d), math.cos(d)]])
        return gate
    return np.kron(PROJ_E, rotation(spec.axis, d)) + np.kron(PROJ_G, IDENTITY_2)


def apply_interaction(rho: np.ndarray, spec: InteractionSpec) -> np.ndarray:
    """Conjugate a two-qubit state by the coupling gate A as A^dag rho A."""
    a = interaction_unitary(spec)
    return dagger(a) @ rho @ a
