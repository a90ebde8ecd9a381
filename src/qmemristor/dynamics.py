"""Time-stepped evolution engine and its two independent oracles.

The digital trajectory applies one amplitude-damping map per grid step, with
the log-amplitude kappa obtained by adaptive quadrature of the decay rate.
`analytic_oracle` evaluates the closed-form interaction-picture solution, with
kappa(0, t) summed from the Jacobi-Anger series of the rate (Abramowitz &
Stegun 9.1.42-9.1.45); `lindblad_oracle` integrates the lab-frame master
equation with classical RK4. Both exist so the digital path can be checked
against routes that share none of its code.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ops
from .errors import IntegrationError
from .linalg import dagger, require_density_matrix

STEPS_PER_PERIOD_FLOOR = 8
QUAD_TOL = 1e-10
# relative size of rounding noise in a Simpson refinement estimate
_ROUNDING_FLOOR = 64 * sys.float_info.epsilon


@dataclass(frozen=True)
class DecayProfile:
    """Oscillating decay rate gamma0 * (1 - sin(cos(omega*t))).

    The modulation keeps the rate strictly positive (|sin(cos x)| <= sin 1).
    ``constant_rate`` replaces the formula by a fixed rate; it exists for
    tests and oracle cross-checks that need a constant or zero rate.
    """
    gamma0: float
    omega: float
    constant_rate: float | None = None

    def __post_init__(self):
        if not 0 < self.gamma0 < math.inf:
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if self.constant_rate is not None and not 0 <= self.constant_rate < math.inf:
            raise ValueError(
                f"constant_rate must be nonnegative and finite, got {self.constant_rate}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of `periods` driving periods, `steps_per_period` steps each."""
    periods: int
    steps_per_period: int = 30

    def __post_init__(self):
        if self.periods < 1:
            raise ValueError(f"periods must be >= 1, got {self.periods}")
        if self.steps_per_period < STEPS_PER_PERIOD_FLOOR:
            raise ValueError(
                f"steps_per_period must be >= {STEPS_PER_PERIOD_FLOOR} "
                f"(finite-difference current needs resolution), got {self.steps_per_period}")

    @property
    def n_steps(self) -> int:
        return self.periods * self.steps_per_period

    def dt(self, omega: float) -> float:
        return 2.0 * math.pi / (omega * self.steps_per_period)

    def times(self, omega: float) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt(omega)


@dataclass(frozen=True)
class InitialState:
    """Pure state cos(a)|e> + sin(a) e^{ib} |g>."""
    a: float
    b: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.a <= math.pi / 2:
            raise ValueError(f"a must lie in [0, pi/2], got {self.a}")
        if not 0.0 <= self.b < 2.0 * math.pi:
            raise ValueError(f"b must lie in [0, 2*pi), got {self.b}")

    def ket(self) -> np.ndarray:
        return np.array([math.cos(self.a),
                         math.sin(self.a) * np.exp(1j * self.b)], dtype=complex)

    def density_matrix(self) -> np.ndarray:
        psi = self.ket()
        return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class TrajectoryState:
    """State of a single-memristor trajectory at time `time`, as `run_single`
    returns it.

    ``rho`` is the 2x2 interaction-picture density matrix, a read-only view
    into the trajectory's one (n_steps+1, 2, 2) array.
    """
    time: float
    rho: np.ndarray


def decay_rate(t: float | np.ndarray, p: DecayProfile) -> float | np.ndarray:
    """Decay rate at time t, a float or an array of times; ``constant_rate``
    if set, in t's shape. Never negative."""
    if p.constant_rate is not None:
        return np.full(np.shape(t), p.constant_rate, dtype=float)
    return p.gamma0 * (1.0 - np.sin(np.cos(p.omega * t)))


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    err = abs(delta)
    # strict acceptance (|delta| <= tol rather than 15*tol) plus the
    # Richardson term keeps the realized error well under the nominal tol
    if depth <= 0 or err <= tol:
        return left + right + delta / 15.0
    if not err > _ROUNDING_FLOOR * abs(whole):
        # a NaN estimate, or rounding noise above tol: refining cannot shrink
        # it (an infinite half gives NaN one level down)
        raise IntegrationError(
            f"decay integral on [{a}, {b}] cannot reach tolerance {tol:.1e}")
    return (_adaptive_simpson(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
            + _adaptive_simpson(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))


def _decay_integral(a: float, b: float, p: DecayProfile) -> float:
    """Adaptive Simpson integral of the rate formula over [a, b], a < b.

    The absolute tolerance is QUAD_TOL. Initial panels are capped at a quarter
    period: a periodic integrand sampled at period-commensurate points can
    fool the refinement estimate. Raises IntegrationError once the error
    estimate is not finite or is rounding noise above the tolerance, which
    refinement cannot fix (an overflowing rate, or one so large that the
    tolerance is below its ulp).
    """
    g0, w, sin, cos = p.gamma0, p.omega, math.sin, math.cos

    def f(t: float) -> float:
        return g0 * (1.0 - sin(cos(w * t)))

    n_panels = max(1, math.ceil((b - a) / (p.period / 4.0)))
    # Python floats: numpy scalars would slow the recursion down about twofold
    edges = np.linspace(a, b, n_panels + 1).tolist()
    panel_tol = QUAD_TOL / n_panels
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = 0.5 * (lo + hi)
        fa, fm, fb = f(lo), f(m), f(hi)
        whole = _simpson(fa, fm, fb, hi - lo)
        total += _adaptive_simpson(f, lo, fa, hi, fb, m, fm, whole, panel_tol, depth=48)
    return total


def kappa(t_start: float, t_end: float, p: DecayProfile) -> float:
    """Log-amplitude kappa = -(1/2) * integral of the decay rate over [t_start, t_end].

    Additive over adjacent intervals, and <= 0 because the rate is never
    negative (every accepted Simpson panel of the formula is positive).
    """
    if t_end < t_start:
        raise ValueError(f"reversed interval [{t_start}, {t_end}]")
    if t_end == t_start:
        return 0.0
    if p.constant_rate is not None:
        return -0.5 * p.constant_rate * (t_end - t_start)
    return -0.5 * _decay_integral(t_start, t_end, p)


def kappa_schedule(grid: TimeGrid, p: DecayProfile) -> np.ndarray:
    """Per-step kappa(t_i, t_{i+1}) for every step of the grid."""
    times = grid.times(p.omega)
    return np.array([kappa(times[i], times[i + 1], p) for i in range(grid.n_steps)])


def theta_schedule(grid: TimeGrid, p: DecayProfile) -> np.ndarray:
    """Collision rotation angles theta_i = arccos(e^{kappa_i}), each in [0, pi/2)."""
    return np.arccos(np.exp(kappa_schedule(grid, p)))


def run_single(init: InitialState, p: DecayProfile,
               grid: TimeGrid) -> list[TrajectoryState]:
    """Digital trajectory of one memristor: one damping Kraus map per step."""
    kappas = kappa_schedule(grid, p)
    rhos = _evolve(init.density_matrix()[None], kappas[:, None], None, "single trajectory")
    return [TrajectoryState(t, r) for t, r in zip(grid.times(p.omega).tolist(), rhos[0])]


def run_coupled(init1: InitialState, init2: InitialState,
                p1: DecayProfile, p2: DecayProfile, grid: TimeGrid,
                specs) -> np.ndarray:
    """Digital trajectories of two coupled memristors, one per coupling spec.

    Each step damps both qubits independently (Kraus pairs extended by the
    identity on the partner, four cross terms) and then conjugates each
    trajectory by its own coupling gate A as A^dag rho A, with A built once
    per spec. Everything but the gate is shared: one kappa schedule per
    distinct profile and one Kraus stack step all trajectories together.
    Returns the states as one read-only (len(specs), n_steps+1, 4, 4) array;
    slice b is bit for bit the run with ``specs[b]`` alone. Requires both
    profiles to share omega so one grid drives both.
    """
    if p1.omega != p2.omega:
        raise ValueError(f"profiles must share omega, got {p1.omega} and {p2.omega}")
    k1 = kappa_schedule(grid, p1)
    k2 = k1 if p2 == p1 else kappa_schedule(grid, p2)
    rho0 = np.kron(init1.density_matrix(), init2.density_matrix())
    gates = np.array([dagger(ops.interaction_unitary(spec)) for spec in specs],
                     dtype=complex).reshape(-1, 4, 4)
    return _evolve(np.broadcast_to(rho0, gates.shape), np.stack([k1, k2], axis=1), gates,
                   "coupled trajectory")


def _evolve(rho0: np.ndarray, kappa_rows: np.ndarray, gates: np.ndarray | None,
            context: str) -> np.ndarray:
    """Step a stack of n_b one- or two-qubit states through the grid together.

    ``rho0`` has shape (n_b, d, d). Row i of ``kappa_rows`` holds each
    qubit's kappa for step i; the Kraus operators of every step come from one
    ``ops.damping_kraus`` call per qubit (for two qubits, the four Kronecker
    products of the pairs) and are shared by the whole stack. A step sums
    op rho op^dag over them from the first term on, then conjugates state b
    as gates[b] rho gates[b]^dag if ``gates`` (n_b, d, d) is given. Returns
    the states as one read-only (n_b, n_steps+1, d, d) array. Each
    trajectory is validated on its own after the loop, so an error names
    ``context`` and the step as a lone trajectory's would.
    """
    # the (n_terms, 1, d, d) operators of a step broadcast over the stack
    kraus = _step_kraus(kappa_rows)[:, :, None]
    kraus_h = dagger(kraus)
    gates_h = None if gates is None else dagger(gates)
    n_b, dim = rho0.shape[:2]
    rhos = np.empty((n_b, len(kraus) + 1, dim, dim), dtype=complex)
    rhos[:, 0] = rho = rho0
    for i in range(len(kraus)):
        terms = kraus[i] @ rho @ kraus_h[i]
        # added one by one: a reduction over the terms does not keep -0.0
        rho = terms[0]
        for term in terms[1:]:
            rho = rho + term
        if gates is not None:
            rho = gates @ rho @ gates_h
        rhos[:, i + 1] = rho
    del kraus, kraus_h  # freed before the validation allocates its own stacks
    for trajectory in rhos:
        require_density_matrix(trajectory[1:], dim, context=context)
    rhos.flags.writeable = False  # every returned state is a view of this buffer
    return rhos


def _step_kraus(kappa_rows: np.ndarray) -> np.ndarray:
    """Kraus operators of every step, shape (n_steps, 2, 2, 2) for one qubit
    and (n_steps, 4, 4, 4) for two, in the order e0, e1 (x) e0, e1."""
    pairs = [ops.damping_kraus(kappa_rows[:, q]) for q in range(kappa_rows.shape[1])]
    kraus = np.stack([pairs[0].e0, pairs[0].e1], axis=1)
    if len(pairs) == 1:
        return kraus
    partner = np.stack([pairs[1].e0, pairs[1].e1], axis=1)
    return _kron(kraus[:, :, None], partner[:, None, :]).reshape(-1, 4, 4, 4)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron over the last two axes of 2x2 matrices, with leading axes
    broadcast, as one broadcast multiply (same entries)."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(lead + (4, 4))


def _bessel_j_at_1(n: int) -> float:
    """J_n(1), correctly rounded: the power series sum_m (-1)^m (1/2)^(2m+n) /
    (m! (m+n)!), summed exactly over m < 12 (the rest is below 1e-20 of it)."""
    return float(sum(Fraction((-1) ** m, math.factorial(m) * math.factorial(m + n)
                              * 2 ** (2 * m + n)) for m in range(12)))


# (2k+1, (-1)^k J_{2k+1}(1) / (2k+1)) for k < 12; the first omitted term has
# J_25(1) ~ 1.9e-33
_SIN_COS_SERIES = tuple((2 * k + 1, (-1) ** k * _bessel_j_at_1(2 * k + 1) / (2 * k + 1))
                        for k in range(12))


def _kappa_closed_form(t: float, p: DecayProfile) -> float:
    """kappa(0, t) in closed form, for t >= 0.

    By Jacobi-Anger, sin(cos x) = 2 sum_k (-1)^k J_{2k+1}(1) cos((2k+1)x), so
    the rate integrates to gamma0 * (t - (2/omega) sum_k (-1)^k J_{2k+1}(1)
    sin((2k+1) omega t) / (2k+1)). Shares no code with `kappa`.
    """
    if not t >= 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if p.constant_rate is not None:
        return -0.5 * p.constant_rate * t
    x = p.omega * t
    wave = sum(c * math.sin(n * x) for n, c in _SIN_COS_SERIES)
    return -0.5 * p.gamma0 * (t - 2.0 / p.omega * wave)


def analytic_oracle(init: InitialState, p: DecayProfile, t: float) -> np.ndarray:
    """Closed-form interaction-picture state at time t.

    The excited amplitude decays by e^{kappa(0, t)} while the ground
    population absorbs the difference; coherences scale by the same factor.
    kappa(0, t) comes from the Jacobi-Anger series of the rate (A&S
    9.1.42-9.1.45), not from the quadrature the digital path uses.
    """
    k = _kappa_closed_form(t, p)
    amp = math.exp(k)
    ce = math.cos(init.a) * amp
    coher = math.cos(init.a) * math.sin(init.a) * np.exp(-1j * init.b) * amp
    return np.array([[ce * ce, coher],
                     [np.conj(coher), 1.0 - ce * ce]], dtype=complex)


def _liouvillian_parts(omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Constant and rate-proportional parts of the vectorized master equation.

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


def lindblad_oracle(init: InitialState, p: DecayProfile, t_end: float,
                    dt_ode: float = 1e-3) -> np.ndarray:
    """Lab-frame state at t_end from RK4 integration of the master equation.

    Fixed-step classical Runge-Kutta on the vectorized equation; global error
    is O(dt_ode^4). Raises IntegrationError if the trace drifts by more than
    1e-6, the sign of a step size too coarse for the dynamics.
    """
    if dt_ode <= 0:
        raise ValueError(f"dt_ode must be positive, got {dt_ode}")
    v = init.density_matrix().reshape(4)
    n_full, rem = divmod(t_end, dt_ode)
    n_full = int(n_full)
    if n_full:
        prop = _rk4_propagator(p, np.arange(n_full) * dt_ode, dt_ode)
        v = _ordered_product(prop) @ v
    if rem > 1e-12 * max(1.0, t_end):
        prop = _rk4_propagator(p, np.array([n_full * dt_ode]), float(rem))
        v = prop[0] @ v
    rho = v.reshape(2, 2)
    drift = abs(rho.trace() - 1.0)
    if drift > 1e-6:
        raise IntegrationError(f"trace drifted by {drift:.3e}; decrease dt_ode")
    return rho


def _rk4_propagator(p: DecayProfile, starts: np.ndarray, h: float) -> np.ndarray:
    """Stacked one-step RK4 propagators for steps [t, t+h], t in ``starts``.

    The master equation is linear, so the classical Runge-Kutta update is a
    matrix acting on vec(rho); building all steps at once lets the final
    state come from one ordered product instead of a Python-level loop.
    """
    ham, diss = _liouvillian_parts(p.omega)
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


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[n-1] @ ... @ mats[0] by pairwise reduction."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            tail = mats[-1]
            mats = mats[1::2] @ mats[0:-1:2]
            mats = np.concatenate([mats, tail[None]])
        else:
            mats = mats[1::2] @ mats[0::2]
    return mats[0]
