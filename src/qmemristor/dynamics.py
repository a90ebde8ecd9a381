"""Time-stepped evolution of one or two memristors and two independent oracles.

The digital trajectory applies one amplitude-damping map per grid step, with
the log-amplitude kappa obtained by adaptive quadrature of the decay rate: one
array adaptive Simpson whose panels refine together, one level per pass, so a
whole schedule's steps are integrated in one call. One qubit needs no step
loop (`run_single` keeps each state entry as a running product or sum); two
coupled qubits are stepped together for every coupling spec (`run_coupled`).
Every row of a damping Kraus term has at most one nonzero entry, so a
coupled step gathers the terms' entries from the state through one constant
index table and scales them by each row's coefficient, read from one
complex table of 256 B per step, with no matrix product until the coupling
gate.
`kappa` gives the same integral over any interval in closed form, from the
Jacobi-Anger series of the rate (Abramowitz & Stegun 9.1.42-9.1.45).
`analytic_oracle` evaluates the closed-form interaction-picture solution
with kappa(0, t) from `kappa`; `lindblad_oracle` integrates the lab-frame
master equation with classical RK4. For the damped qubit that equation is
two scalar Bloch equations, one real for the excited population and one
complex for the coherence, and the other two entries follow from these. The
whole steps run in blocks of `_RK4_BLOCK` steps, each equation keeping one
running product of step gains across them. A block reads its rates from
the drive modulation sampled on its stretch of the half-step grid, where a
step's end is the next step's start (2B+1 samples for B steps); that table
depends only on omega, the step size and the block, so a bounded cache keeps
the recent blocks, and the oracle's memory is a few blocks plus that cache,
whatever the number of steps. A remainder step is its own gain, multiplied
in last. Both oracles exist so the digital path can be checked against
routes that share none of its code.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ops
from .errors import IntegrationError
from .linalg import dagger, require_density_matrix

log = logging.getLogger(__name__)

STEPS_PER_PERIOD_FLOOR = 8
QUAD_TOL = 1e-10
# relative size of rounding noise in a Simpson refinement estimate
_ROUNDING_FLOOR = 64 * sys.float_info.epsilon
# whole RK4 steps per block of `lindblad_oracle`: a block's largest
# temporary, its (3, B) complex lambda table, is 96 KiB, below glibc's
# default 128 KiB mmap threshold, so the blocks reuse heap pages instead of
# faulting in fresh ones (at 4096 steps that table is mapped afresh, about
# 96 page faults per fig4 call)
_RK4_BLOCK = 2048
# coupled steps per block of `_step_coupled`: a block's two spread
# coefficient tables are 64 KiB each, below glibc's 128 KiB mmap threshold
_COUPLED_BLOCK = 64
# modulation blocks the cache keeps: a fig4 criterion-1 call (25132 steps of
# 1e-3) reads 13 blocks, so two such step grids stay warm, in 1.5 MiB
_MODULATION_CACHE_BLOCKS = 32
# most steps `lindblad_oracle` takes: the half-step index 2n+1 of its last
# step must fit numpy's intp
_MAX_RK4_STEPS = (np.iinfo(np.intp).max - 1) // 2


@dataclass(frozen=True)
class DecayProfile:
    """Oscillating decay rate gamma0 * (1 - sin(cos(omega*t))).

    The modulation keeps the rate strictly positive (|sin(cos x)| <= sin 1).
    """
    gamma0: float
    omega: float

    def __post_init__(self):
        if not 0 < self.gamma0 < math.inf:
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")


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
        """|psi><psi|, exactly Hermitian: the outer product can round the
        imaginary part of psi_g conj(psi_g) apart from zero (a fused
        multiply-add keeps a product's rounding error), so rho_gg keeps
        only its real part."""
        psi = self.ket()
        rho = np.outer(psi, psi.conj())
        rho[1, 1] = rho[1, 1].real
        return rho


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
    """Decay rate at time t, a float or an array of times. Never negative."""
    return p.gamma0 * _modulation(p.omega, t)


def _modulation(omega: float, t: float | np.ndarray) -> float | np.ndarray:
    """Drive modulation 1 - sin(cos(omega*t)) of the decay rate."""
    return 1.0 - np.sin(np.cos(omega * t))


def _simpson(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Simpson's rule on panels whose rows 0, 1, 2 hold the start, the
    midpoint and the end (times ``t``, rates ``f``)."""
    return (t[2] - t[0]) / 6.0 * (f[0] + 4.0 * f[1] + f[2])


def _panel_integrals(a: np.ndarray, b: np.ndarray, p: DecayProfile,
                     tol: float) -> np.ndarray:
    """Adaptive Simpson integrals of the rate formula over the panels [a_j, b_j].

    All panels refine together, one level per pass. A pass evaluates the
    rate at every open panel's two new midpoints in one ``decay_rate`` call,
    then accepts each panel or splits it into halves with half its
    tolerance. A split panel's value is its left half's plus its right
    half's, folded from the deepest level up. Raises IntegrationError once
    an open panel's error estimate is not finite (an overflowing rate).
    """
    t = np.stack([a, 0.5 * (a + b), b])
    levels = []
    # an overflowing rate must surface as the IntegrationError alone
    with np.errstate(over="ignore", invalid="ignore"):
        f = decay_rate(t, p)
        whole = _simpson(t, f)
        for depth in range(48, -1, -1):
            mids = 0.5 * (t[:-1] + t[1:])
            f_mids = decay_rate(mids, p)
            # rows: start, left midpoint, midpoint, right midpoint, end
            t5 = np.stack([t[0], mids[0], t[1], mids[1], t[2]])
            f5 = np.stack([f[0], f_mids[0], f[1], f_mids[1], f[2]])
            left, right = _simpson(t5[:3], f5[:3]), _simpson(t5[2:], f5[2:])
            delta = left + right - whole
            err = np.abs(delta)
            # strict acceptance (|delta| <= tol rather than 15*tol) plus the
            # Richardson term usually keeps the realized error under the
            # nominal tol, but |delta| only estimates it: the one panel of
            # [3.2274924225149766, 4.227...] at gamma0 = 0.4, omega = 1, about
            # a sixth of a period, is accepted 1.18e-10 off the closed form,
            # 18% over tol = 1e-10. Only `kappa_schedule` calls this, whose
            # panels are grid steps of at most an eighth of a period
            accepted = (err <= tol) | (depth <= 0)
            # an overflowing rate: an infinite half gives NaN one level down
            failed = ~(accepted | np.isfinite(err))
            if failed.any():
                j = np.flatnonzero(failed)[0]
                raise IntegrationError(
                    f"decay integral on [{float(t[0, j])}, {float(t[2, j])}] "
                    f"cannot reach tolerance {tol:.1e}")
            # rounding noise above tol: the two estimates agree as far as
            # floats resolve them, and refining cannot shrink the difference
            split = ~(accepted | (err <= _ROUNDING_FLOOR * np.abs(whole)))
            levels.append((left + right + delta / 15.0, split))
            if not split.any():
                break
            # the left halves of the split panels, then their right halves
            t = np.concatenate([t5[:3, split], t5[2:, split]], axis=1)
            f = np.concatenate([f5[:3, split], f5[2:, split]], axis=1)
            whole = np.concatenate([left[split], right[split]])
            tol = tol / 2.0
    values, _ = levels.pop()
    for parent, split in reversed(levels):
        half = len(values) // 2
        parent[split] = values[:half] + values[half:]
        values = parent
    return values


def _bessel_j_at_1(n: int) -> float:
    """J_n(1), correctly rounded: the power series sum_m (-1)^m (1/2)^(2m+n) /
    (m! (m+n)!), summed exactly over m < 12 (the rest is below 1e-20 of it)."""
    return float(sum(Fraction((-1) ** m, math.factorial(m) * math.factorial(m + n)
                              * 2 ** (2 * m + n)) for m in range(12)))


# (2k+1, (-1)^k J_{2k+1}(1) / (2k+1)) for k < 12; the first omitted term has
# J_25(1) ~ 1.9e-33
_SIN_COS_SERIES = tuple((2 * k + 1, (-1) ** k * _bessel_j_at_1(2 * k + 1) / (2 * k + 1))
                        for k in range(12))


def _sinc(x: float) -> float:
    """sin(x)/x, with sinc(0) = 1."""
    return math.sin(x) / x if x else 1.0


def kappa(t_start: float, t_end: float, p: DecayProfile) -> float:
    """Log-amplitude kappa = -(1/2) * integral of the decay rate over
    [a, b] = [t_start, t_end], in closed form.

    By Jacobi-Anger (Abramowitz & Stegun 9.1.42-9.1.45), sin(cos x) =
    2 sum_k (-1)^k J_{2k+1}(1) cos((2k+1)x), so the rate integrates to
    gamma0 * (b - a - (2/omega) sum_k (-1)^k J_{2k+1}(1) (sin(n omega b) -
    sin(n omega a)) / n) with n = 2k+1. Each difference is summed as
    2 cos(n omega (a+b)/2) sin(n omega (b-a)/2), which does not cancel on a
    short interval, so kappa stays <= 0 however short the interval is.
    Where 4/omega overflows or omega (b-a)/2 is subnormal (a tiny omega or
    span), each term is summed as 2 n (b - a) cos(n omega (a+b)/2)
    sinc(n omega (b-a)/2) instead, the same value with no 1/omega factor.
    Shares no code with `kappa_schedule`. Raises ValueError naming the
    interval if it is reversed or has an end that is not finite, if a
    harmonic's phase n omega (a+b)/2 or n omega (b-a)/2 overflows, or if
    kappa itself does not come out finite (b - a or gamma0 (b - a)
    overflows).
    """
    if not -math.inf < t_start <= t_end < math.inf:
        raise ValueError(f"kappa needs a finite interval with t_start <= t_end, "
                         f"got [{t_start}, {t_end}]")
    span = t_end - t_start
    mid, half = 0.5 * p.omega * (t_start + t_end), 0.5 * p.omega * span
    # math.cos and math.sin raise a bare "math domain error" on an
    # infinite phase, and the highest harmonic's phase is the largest
    n_top = _SIN_COS_SERIES[-1][0]
    if not (math.isfinite(n_top * mid) and math.isfinite(n_top * half)):
        raise ValueError(f"kappa's phase overflows on [{t_start}, {t_end}] "
                         f"at omega={p.omega}")
    if math.isfinite(4.0 / p.omega) and half >= sys.float_info.min:
        wave = sum(c * math.cos(n * mid) * math.sin(n * half) for n, c in _SIN_COS_SERIES)
        value = -0.5 * p.gamma0 * (span - 4.0 / p.omega * wave)
    else:
        # 4/omega overflows or the phases are subnormal: (4/omega) sin(n half)
        # = 2 n span sinc(n half), which stays finite and keeps its digits
        wave = sum(n * c * math.cos(n * mid) * _sinc(n * half) for n, c in _SIN_COS_SERIES)
        value = -0.5 * p.gamma0 * span * (1.0 - 2.0 * wave)
    if not math.isfinite(value):
        raise ValueError(f"kappa overflows on [{t_start}, {t_end}] to {value}")
    return value


def kappa_schedule(grid: TimeGrid, p: DecayProfile) -> np.ndarray:
    """Per-step kappa(t_i, t_{i+1}) for every step of the grid, by adaptive
    quadrature of the decay rate.

    Each step is one panel (a step spans at most an eighth of a period), and
    the whole schedule is one `_panel_integrals` call with tolerance
    QUAD_TOL. Every step lies within QUAD_TOL/2 + 64 eps |kappa| of the
    closed-form `kappa` over that step, with which it shares no code. Steps
    that are empty because dt rounds to 0 get kappa +0.0, and one DEBUG
    record counts them.
    """
    times = grid.times(p.omega)
    steps = np.diff(times)
    kappas = -0.5 * _panel_integrals(times[:-1], times[1:], p, QUAD_TOL)
    # an omega so large that dt rounds to 0.0 gives empty steps, whose kappa is +0.0
    empty = steps == 0.0
    n_empty = np.count_nonzero(empty)
    if n_empty:
        kappas[empty] = 0.0
        log.debug("kappa schedule: %d of %d step(s) are empty (dt rounds to 0 at "
                  "omega=%g); their kappa is +0.0", n_empty, steps.size, p.omega)
    return kappas


def theta_schedule(grid: TimeGrid, p: DecayProfile) -> np.ndarray:
    """Collision rotation angles theta_i = arccos(e^{kappa_i}), each in [0, pi/2)."""
    return np.arccos(np.exp(kappa_schedule(grid, p)))


def run_single(init: InitialState, p: DecayProfile,
               grid: TimeGrid) -> list[TrajectoryState]:
    """Digital trajectory of one memristor: one damping Kraus map per step.

    E0 = diag(a, 1) and E1 = s|g><e| have one nonzero entry per row, so each
    entry of E0 rho E0^dag + E1 rho E1^dag follows one running product or
    sum: the excited population scales as (a ee) a, the coherences by a,
    and the ground population gains (s ee) s. ``accumulate`` runs strictly
    left to right, so every entry rounds as the step-by-step map does. The
    map's matrix products sum from +0, so a zero part of a stepped entry is
    +0 there; adding +0 to the stepped coherences turns their -0 parts (a
    negative subnormal times a zero) into +0 and changes nothing else.
    """
    a, s = ops.damping_amplitudes(kappa_schedule(grid, p))
    rho0 = init.density_matrix()
    rhos = np.empty((len(a) + 1, 2, 2), dtype=complex)
    ee = np.multiply.accumulate(np.concatenate([rho0[0, :1], np.repeat(a, 2)]))[::2]
    rhos[:, 0, 0] = ee
    rhos[:, 0, 1] = np.multiply.accumulate(np.concatenate([rho0[0, 1:], a]))
    rhos[:, 1, 0] = np.multiply.accumulate(np.concatenate([rho0[1, :1], a]))
    rhos[1:, 0, 1] += 0.0
    rhos[1:, 1, 0] += 0.0
    rhos[:, 1, 1] = np.add.accumulate(np.concatenate([rho0[1, 1:], s * ee[:-1] * s]))
    require_density_matrix(rhos[1:], 2, context="single trajectory")
    rhos.flags.writeable = False  # every returned state is a view of this buffer
    return [TrajectoryState(t, r) for t, r in zip(grid.times(p.omega).tolist(), rhos)]


def run_coupled(init1: InitialState, init2: InitialState,
                p1: DecayProfile, p2: DecayProfile, grid: TimeGrid,
                specs) -> np.ndarray:
    """Digital trajectories of two coupled memristors, one per coupling spec.

    Each step damps both qubits independently (the Kronecker products of
    the two qubits' Kraus operators, four terms, summed in order from the
    first by one ``np.add.reduce``) and then conjugates each trajectory by
    its own coupling gate A as A^dag rho A, with A built once per spec;
    that product is written straight into the returned array. Every row of
    a Kronecker term has at most one nonzero entry, and it is real, so a
    term's entries are gathered from the state by one ``take`` and scaled
    by their rows' coefficients from one per-step table
    (`_term_coefficients`): six numpy calls per step into buffers reused
    by every step (`_step_coupled`), on 2-D arrays for a lone spec, bit for
    bit the term-by-term matrix products. Everything but the gate is
    shared: one kappa schedule and one ``damping_amplitudes`` call per distinct
    profile, and one coefficient table, step all trajectories together.
    Returns the states as one read-only (len(specs), n_steps+1, 4, 4)
    array; slice b is bit for bit the run with ``specs[b]`` alone, and each
    trajectory is validated on its own, so an error names the step as a
    lone run's would. Requires both profiles to share omega so one grid
    drives both.
    """
    if p1.omega != p2.omega:
        raise ValueError(f"profiles must share omega, got {p1.omega} and {p2.omega}")
    k1 = kappa_schedule(grid, p1)
    k2 = k1 if p2 == p1 else kappa_schedule(grid, p2)
    gates = np.array([dagger(ops.interaction_unitary(spec)) for spec in specs],
                     dtype=complex).reshape(-1, 4, 4)
    rhos = np.empty((len(gates), len(k1) + 1, 4, 4), dtype=complex)
    rhos[:, 0] = np.broadcast_to(np.kron(init1.density_matrix(), init2.density_matrix()),
                                 gates.shape)
    # the coefficient table is freed on the stepping's return, before the
    # validation allocates its own
    _step_coupled(rhos.swapaxes(0, 1), _term_coefficients(k1, k2), gates)
    for trajectory in rhos:
        require_density_matrix(trajectory[1:], 4, context="coupled trajectory")
    rhos.flags.writeable = False
    return rhos


# Each row of E0 = diag(a, 1) and of E1 = s|g><e| has at most one nonzero
# entry, and it is real; _KRAUS_COLUMN[t, r] is its column in row r of
# term t. Row 0 of E1 is empty: its column is 0, with coefficient 0.
_KRAUS_COLUMN = np.array([[0, 1], [0, 0]])
# the same for the Kronecker term k = 2 t1 + t2, row i = 2 r1 + r2 (np.kron's order)
_TERM_COLUMN = (2 * _KRAUS_COLUMN[:, None, :, None]
                + _KRAUS_COLUMN[None, :, None, :]).reshape(4, 4)
# entry 4i + j of term k of K rho K^dag is c_i rho[m(i), m(j)] c_j, with
# m(i) the column of row i's nonzero c_i: the flat index of rho[m(i), m(j)]
_TERM_INDEX = (4 * _TERM_COLUMN[:, :, None] + _TERM_COLUMN[:, None, :]).reshape(4, 16)


def _term_coefficients(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Per-step coefficients of the four Kronecker terms of the two qubits'
    damping Kraus operators for kappas k1, k2.

    A read-only complex (n_steps, 4, 4) table: entry [n, k, i] is c_i of
    term k at step n, the nonzero entry of the term's row i (0 for an empty
    row). Its real part is the float64 product of the two qubits' entries,
    the same bits as the real part of np.kron's complex product, and its
    imaginary part is exactly +0: the operand a complex-by-float multiply
    would cast c_i to, so the stepping's complex products see the same
    values without a cast per step. The table is 256 B per step.
    """
    a1, s1 = ops.damping_amplitudes(k1)
    a2, s2 = (a1, s1) if k2 is k1 else ops.damping_amplitudes(k2)
    # [n, t, r]: the entry of row r of Kraus term t, [[a, 1], [0, s]]
    c1, c2 = (np.stack([a, np.ones_like(a), np.zeros_like(a), s], axis=1).reshape(-1, 2, 2)
              for a, s in ((a1, s1), (a2, s2)))
    table = (c1[:, :, None, :, None] * c2[:, None, :, None, :]).reshape(-1, 4, 4).astype(complex)
    table.flags.writeable = False
    return table


def _step_coupled(states: np.ndarray, table: np.ndarray, gates: np.ndarray) -> None:
    """Fill states[1:] from states[0], one step at a time.

    ``states[i]`` holds step i of every trajectory, ``table`` is the
    per-step coefficient table of `_term_coefficients`, and ``gates`` holds
    each trajectory's A^dag. With one trajectory the batch axis is dropped,
    so every call runs on 2-D operands and the gate products call zgemm
    directly rather than through matmul's stacked loop; a batch keeps it.

    Entry 4i + j of a term K rho K^dag is (c_i rho[m(i), m(j)]) c_j. Each
    block of `_COUPLED_BLOCK` steps spreads its rows of the table to c_i
    and c_j for every entry, so both in-place scalings are same-shape
    complex products, numpy's contiguous loop with neither a broadcast nor
    a cast per step. BLAS rounds the two matrix products to these bits, as
    every other product in its sums is an exact zero; only the sign of an
    exact zero can differ, and no stored state sees it (the gate's products
    sum from +0).
    """
    if len(gates) == 1:
        states, gates = states[:, 0], gates[0]
    batch = gates.shape[:-2]
    gates_h = dagger(gates)
    # each step's term entries, their sum and the gate's first product go
    # into these, reused step to step
    terms = np.empty((*batch, 4, 16), dtype=complex)
    damped, gated = np.empty((2, *batch, 4, 4), dtype=complex)
    damped_flat = damped.reshape(*batch, 16)
    # a view: the state axes of run_coupled's buffer are contiguous
    flat = states.reshape(len(states), *batch, 16)
    for start in range(0, len(table), _COUPLED_BLOCK):
        block = table[start:start + _COUPLED_BLOCK]
        for c_i, c_j, rho, out in zip(np.repeat(block, 4, axis=2), np.tile(block, (1, 1, 4)),
                                      flat[start:-1], states[start + 1:]):
            # "clip" spares take's buffered bounds check; every index is in range
            rho.take(_TERM_INDEX, axis=-1, out=terms, mode="clip")
            terms *= c_i
            terms *= c_j
            # the terms summed in order, term 0 first
            np.add.reduce(terms, axis=-2, out=damped_flat)
            np.matmul(gates, damped, out=gated)
            np.matmul(gated, gates_h, out=out)


def analytic_oracle(init: InitialState, p: DecayProfile, t: float) -> np.ndarray:
    """Closed-form interaction-picture state at time t.

    The excited amplitude decays by e^{kappa(0, t)} while the ground
    population absorbs the difference; coherences scale by the same factor.
    kappa(0, t) is the closed-form `kappa`, not the quadrature the digital
    path uses. Raises ValueError for a negative or NaN t.
    """
    if not t >= 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    amp = math.exp(kappa(0.0, t, p))
    ce = math.cos(init.a) * amp
    coher = math.cos(init.a) * math.sin(init.a) * np.exp(-1j * init.b) * amp
    return np.array([[ce * ce, coher],
                     [np.conj(coher), 1.0 - ce * ce]], dtype=complex)


def _rk4_gains(ham: complex, diss: complex, rates: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 gain of every step of y' = lam(t) y, lam = ham + diss *
    rate(t): one mode, each step of size h.

    ``rates`` is a contiguous (3, n) table whose rows hold the decay rate at
    each step's start, midpoint and end. lam and each stage are one new
    array, updated in place.
    """
    lam = diss * rates
    lam += ham
    # numpy's complex multiply rounds a*b and b*a apart in the last bit; each
    # product of two arrays runs in place with the running stage on the left
    k1, mid, end = lam
    k2 = 0.5 * h * k1
    k2 += 1.0
    k2 *= mid
    k3 = 0.5 * h * k2
    k3 += 1.0
    k3 *= mid
    k4 = h * k3
    k4 += 1.0
    k4 *= end
    # 1 + (h/6) (((k1 + 2 k2) + 2 k3) + k4), accumulated in k2
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2 += 1.0
    return k2


@functools.lru_cache(maxsize=_MODULATION_CACHE_BLOCKS)
def _modulation_block(omega: float, dt: float, start: int, stop: int) -> np.ndarray:
    """Drive modulation at the start, midpoint and end of whole steps start
    to stop-1 of dt from t = 0, as a read-only contiguous (3, stop-start)
    table.

    The modulation is sampled once on the block's stretch of the half-step
    grid k dt/2, k = 2 start..2 stop, so a step's end is the next step's
    start. The rows are gathered into contiguous memory, as numpy's complex
    multiply rounds a strided operand apart from a contiguous one. Cached:
    every table is shared by the calls that hit it.
    """
    m = _modulation(omega, np.arange(2 * start, 2 * stop + 1) * (0.5 * dt))
    table = np.stack([m[:-1:2], m[1::2], m[2::2]])
    table.flags.writeable = False
    return table


def _blocked_mode_products(rate_blocks, h: float, omega: float) -> tuple[float, complex]:
    """Products P1 and P2 over the steps of the two Bloch equations' RK4
    gains, steps of size h whose (3, B) decay-rate tables ``rate_blocks``
    yields in order.

    P1 is the excited population's, rho_ee' = -gamma(t) rho_ee, in real
    arithmetic; P2 the coherence's, rho_eg' = -(i omega + gamma(t)/2)
    rho_eg. One running product each, carried from block to block by
    ``prod(initial=...)``: numpy starts an unseeded product from the
    identity 1, so the result is the one left-to-right product of all the
    gains, bit for bit, whatever the block size. A pairwise product would
    round each level's equal partial products alike under a constant rate,
    an error growing with n instead of sqrt(n).
    """
    prod1, prod2 = 1.0, complex(1.0)
    for rates in rate_blocks:
        prod1 = _rk4_gains(0.0, -1.0, rates, h).prod(initial=prod1)
        # a complex -1/2, so the rates are complex before -i omega is added in place
        prod2 = _rk4_gains(-1j * omega, -0.5 + 0j, rates, h).prod(initial=prod2)
    return prod1, prod2


def lindblad_oracle(init: InitialState, p: DecayProfile, t_end: float,
                    dt_ode: float = 1e-3) -> np.ndarray:
    """Lab-frame state at t_end from RK4 integration of the master equation.

    For the damped qubit, H = (omega/2) sigma_z and the one jump operator
    sqrt(gamma(t)) sigma_-, the master equation is two scalar Bloch
    equations, rho_ee' = -gamma(t) rho_ee and rho_eg' = -(i omega +
    gamma(t)/2) rho_eg (Breuer & Petruccione, The Theory of Open Quantum
    Systems, 3.4); rho_ge is the conjugate of rho_eg and rho_gg takes what
    rho_ee loses. Each is stepped by fixed-step classical Runge-Kutta with
    steps of dt_ode and one trailing partial step to t_end, gamma sampled at
    each step's start, midpoint and end; global error is O(dt_ode^4). With
    P1 and P2 the products of the two equations' step gains, the state is
    rho_ee = P1 ee, rho_eg = P2 eg, rho_ge = conj(P2) ge and rho_gg =
    (ee + gg) - P1 ee, from rho0 = [[ee, eg], [ge, gg]].

    The whole steps run in blocks of `_RK4_BLOCK` steps
    (`_blocked_mode_products`), each block's rates read from the drive
    modulation sampled on its stretch of the half-step grid (2B+1 samples
    for B steps) and kept in a bounded cache (`_modulation_block`), so
    the call holds a few blocks' arrays whatever n is, and a repeated call
    skips the sin(cos) sweep. A remainder step above 1e-12 max(1, t_end)
    is its own three-sample gain with step size the remainder, multiplied
    in after the whole steps. With no step at all (t_end below that
    cutoff), rho0 is returned unchanged.

    Raises ValueError for a t_end that is negative or not finite, a dt_ode
    that is not positive and finite, or more steps than the half-step grid
    can index (checked before anything is allocated). Raises
    IntegrationError if the trace drifts by more than 1e-6 or is no longer
    finite, or if a gain overflows to a non-finite entry the trace does not
    see (a coherence), the sign of a step size too coarse for the dynamics.
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end}")
    if not 0.0 < dt_ode < math.inf:
        raise ValueError(f"dt_ode must be positive and finite, got {dt_ode}")
    n_full, rem = divmod(t_end, dt_ode)
    if not n_full <= _MAX_RK4_STEPS:
        raise ValueError(f"t_end = {t_end} at dt_ode = {dt_ode} needs {n_full:.6g} RK4 "
                         f"steps, more than the {_MAX_RK4_STEPS} its half-step grid "
                         f"can index")
    n_full = int(n_full)
    tail = rem > 1e-12 * max(1.0, t_end)
    rho0 = init.density_matrix()
    if not (n_full or tail):
        return rho0
    # a step too coarse for a stiff rate overflows the gains; the checks
    # below must be the only signal
    with np.errstate(over="ignore", invalid="ignore"):
        # each block's rates are gamma0 times its cached modulation table,
        # the expression `decay_rate` evaluates, so every rate has the
        # scalar call's bits
        blocks = (p.gamma0 * _modulation_block(p.omega, dt_ode, start,
                                               min(start + _RK4_BLOCK, n_full))
                  for start in range(0, n_full, _RK4_BLOCK))
        gains = np.array(_blocked_mode_products(blocks, dt_ode, p.omega))
        if tail:
            start = n_full * dt_ode
            rates = decay_rate(start + rem * np.array([[0.0], [0.5], [1.0]]), p)
            # an array multiply: a numpy scalar product rounds apart from it
            gains *= _blocked_mode_products([rates], rem, p.omega)
        p1, p2 = gains
        # one array multiply with each gain on the left of its entry: numpy's
        # complex multiply rounds a*b and b*a apart
        rho = np.array([[p1, p2], [p2.conjugate(), 0.0]]) * rho0
        rho[1, 1] = rho0.trace() - rho[0, 0]
        drift = abs(rho.trace() - 1.0)
    if not drift <= 1e-6:
        raise IntegrationError(f"trace drifted by {drift:.3e}; decrease dt_ode")
    if not np.isfinite(rho).all():
        raise IntegrationError("RK4 gains overflow to a non-finite state entry; "
                               "decrease dt_ode")
    return rho
