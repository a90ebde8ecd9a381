"""Observables: exact and finite-shot Bloch components, voltage and current.

The memristive variables are built from the transverse Bloch components of
the lab-frame state: voltage is proportional to -<sigma_y>/2 and current
combines the time derivative of <sigma_y> with <sigma_x>. The derivative is
taken by finite differences on the simulation grid, which is the dominant
discretization error of the whole pipeline.

Shot emulation draws a binomial count per (time step, axis) from the exact
outcome probability, with an independent, deterministically derived RNG
stream per point so that serial and parallel evaluation coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ops
from .dynamics import DecayProfile, decay_rate
from .errors import NumericsError, StateError
from .linalg import partial_trace

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
_TRANSVERSE = np.stack([ops.SIGMA_X, ops.SIGMA_Y])


@dataclass(frozen=True)
class ShotConfig:
    """Measurement emulation settings. mode 'exact' ignores shots and seed."""
    mode: str = "exact"
    shots: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.mode == "sampled" and self.shots < 1:
            raise ValueError(f"shots must be >= 1 in sampled mode, got {self.shots}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class QubitSeries:
    """Per-step observables of one memristor qubit."""
    sx_i: np.ndarray
    sy_i: np.ndarray
    sx_s: np.ndarray
    sy_s: np.ndarray
    gamma: np.ndarray
    voltage: np.ndarray
    current: np.ndarray


@dataclass(frozen=True)
class ObservableTrace:
    """Time series of all recorded observables for a run.

    ``qubits`` has one entry per memristor; ``concurrence`` is present only
    for coupled runs (it is an analytic quantity of the simulated state, not
    a sampled one, so it carries no shot noise).
    """
    t: np.ndarray
    qubits: tuple[QubitSeries, ...]
    concurrence: np.ndarray | None = None


def exact_expectation(rho: np.ndarray, axis: str) -> float:
    """Tr(sigma_axis rho); the imaginary part of the trace is discarded."""
    value = np.trace(ops.PAULI[axis] @ rho)
    return float(value.real)


def _point_rng(cfg: ShotConfig, stream: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, *stream]))


def sampled_expectation(rho: np.ndarray, axis: str, cfg: ShotConfig,
                        stream: tuple[int, ...] = ()) -> float:
    """Binomial shot estimate of <sigma_axis>.

    ``stream`` identifies the measurement point (qubit, step); together with
    the axis it selects a reproducible RNG substream of the master seed.
    """
    if cfg.mode != "sampled":
        raise ValueError("sampled_expectation requires a sampled-mode ShotConfig")
    p_up = 0.5 * (1.0 + exact_expectation(rho, axis))
    p_up = min(max(p_up, 0.0), 1.0)
    rng = _point_rng(cfg, (*stream, _AXIS_INDEX[axis]))
    k = rng.binomial(cfg.shots, p_up)
    return 2.0 * k / cfg.shots - 1.0


def voltage(sy_s, omega: float):
    """Memristive voltage -0.5 * sqrt(omega/2) * <sigma_y> (natural units)."""
    return -0.5 * math.sqrt(omega / 2.0) * np.asarray(sy_s)


def finite_difference(y: np.ndarray, dt: float) -> np.ndarray:
    """Derivative of a uniformly sampled series.

    Five-point fourth-order stencils (central inside, one-sided at the four
    boundary points) when the series has at least five samples; three-point
    second-order stencils otherwise. Fourth order is needed to keep the
    discretization residual of the current far below the memristive-identity
    tolerances at 30 steps per period.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 3:
        raise ValueError(f"need at least 3 points to differentiate, got {n}")
    d = np.empty_like(y)
    if n >= 5:
        d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dt)
        d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * dt)
        d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * dt)
        d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * dt)
        d[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * dt)
    else:
        d[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
        d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
        d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return d


def current_series(sx_s: np.ndarray, sy_s: np.ndarray, dt: float,
                   omega: float) -> np.ndarray:
    """Memristive current sqrt(omega/2) * (d<sigma_y>/dt - <sigma_x>) (natural units)."""
    dsy = finite_difference(np.asarray(sy_s, dtype=float), dt)
    scale = math.sqrt(omega / 2.0)
    return scale * dsy - scale * np.asarray(sx_s, dtype=float)


def build_trace(states: np.ndarray,
                profiles: Sequence[DecayProfile],
                times: np.ndarray,
                shots: ShotConfig,
                concurrence: np.ndarray | None = None) -> ObservableTrace:
    """Assemble the observable series of a trajectory.

    ``states`` is the trajectory's (n, d, d) stack of interaction-picture
    states at the grid ``times``. ``profiles`` carries one decay profile per
    qubit; for 4x4 states each qubit's Bloch components come from its reduced
    state. The reduced states come from one einsum per qubit, and exact
    components from one stacked matmul and trace, equal to
    ``exact_expectation`` point by point. Sampled components call
    ``sampled_expectation`` once per point. The interaction-picture
    components are rotated to the lab frame and turned into voltage and
    current. Raises NumericsError if a voltage or current is not finite (an
    omega so large that the finite difference overflows).
    """
    n_qubits = 1 if states.shape[-1] == 2 else 2
    if len(profiles) != n_qubits:
        raise ValueError(f"expected {n_qubits} decay profile(s), got {len(profiles)}")
    t = np.asarray(times, dtype=float)
    if t.shape != states.shape[:1]:
        raise ValueError(f"got {t.size} times for {len(states)} states")
    dt = float(t[1] - t[0])
    omega = profiles[0].omega
    series = []
    for q in range(n_qubits):
        reduced = states if n_qubits == 1 else partial_trace(states, keep=q + 1)
        if shots.mode == "sampled":
            sx_i, sy_i = (np.array([sampled_expectation(r, axis, shots, (q, i))
                                    for i, r in enumerate(reduced)])
                          for axis in ("x", "y"))
        else:
            sx_i, sy_i = np.trace(_TRANSVERSE[:, None] @ reduced, axis1=2, axis2=3).real.copy()
            _check_bloch_norm(sx_i, sy_i)
        sx_s, sy_s = ops.frame_to_schroedinger(sx_i, sy_i, t, omega)
        gamma = np.array([decay_rate(ti, profiles[q]) for ti in t])
        # the finite check below reports an overflow; numpy need not warn first
        with np.errstate(over="ignore", invalid="ignore"):
            v = voltage(sy_s, omega)
            i_series = current_series(sx_s, sy_s, dt, omega)
        if not (np.isfinite(v).all() and np.isfinite(i_series).all()):
            raise NumericsError(
                f"qubit {q + 1}: voltage or current is not finite (omega={omega:g}, dt={dt:g})")
        series.append(QubitSeries(sx_i, sy_i, sx_s, sy_s, gamma, v, i_series))
    return ObservableTrace(t=t, qubits=tuple(series), concurrence=concurrence)


def _check_bloch_norm(sx: np.ndarray, sy: np.ndarray) -> None:
    """Exact transverse components must lie in the unit disc.

    Sampled values are not checked: each shot estimate lies in [-1, 1] by
    construction and its state already passed validation, while the pair
    (sx, sy) can leave the disc through independent shot noise alone.
    """
    worst = float(np.max(sx * sx + sy * sy))
    if worst > 1.0 + 1e-9:
        raise StateError(f"transverse Bloch norm {worst:.6f} exceeds 1 + 1e-09")
