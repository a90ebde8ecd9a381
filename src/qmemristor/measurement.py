"""Observables: exact and finite-shot Bloch components, voltage and current.

The memristive variables are built from the transverse Bloch components of
the lab-frame state: voltage is proportional to -<sigma_y>/2 and current
combines the time derivative of <sigma_y> with <sigma_x>. The derivative is
taken by finite differences on the simulation grid, which is the dominant
discretization error of the whole pipeline.

Exact components come from two entries of each reduced state; shot emulation
draws a binomial count per (time step, axis) from their outcome
probability, with an independent, deterministically derived RNG stream per
point so that serial and parallel evaluation coincide. Point i of a series
draws from ``default_rng(SeedSequence([seed, *stream, i, axis]))``. One
``sampled_expectation`` call derives every point's PCG64 state of a series
at once, as a uint64 table: numpy's SeedSequence hash vectorized over i,
then PCG64's 128-bit seeding step on 64-bit limbs. It draws every point
from one Generator, whose {state, inc} words it finds through the public
``ctypes.state_address``, checks against the public state getter, and then
overwrites with each point's table row before numpy's own ``binomial``. A
numpy whose words match no known layout gets each row through the public
state setter instead: the same draws, slower, logged once per process.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ops
from .dynamics import DecayProfile, decay_rate
from .errors import NumericsError, StateError
from .linalg import partial_trace

log = logging.getLogger(__name__)

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64 seeding
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ShotConfig:
    """Measurement emulation settings. mode 'exact' ignores shots and seed."""
    mode: str = "exact"
    shots: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.mode == "sampled" and not 1 <= self.shots < 2 ** 63:
            # the binomial draw takes a signed 64-bit count
            raise ValueError(f"shots must lie in [1, 2**63) in sampled mode, got {self.shots}")
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


def _uint32_words(n: int) -> list[int]:
    """numpy's little-endian uint32 split of one entropy int; 0 gives [0]."""
    n = operator.index(n)  # a numpy integer becomes an unbounded int
    if n < 0:
        raise ValueError(f"entropy must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _entropy_words(head: Sequence[int], index: np.ndarray | None,
                   tail: int) -> list[int | np.ndarray]:
    """Assembled SeedSequence entropy of ``[*head, index[j], tail]`` per point j.

    A word that is the same at every point is an int; the index is one
    uint32 array, and ``index=None`` gives the one point ``[*head, tail]``.
    Every point must split into the same number of words, so an index of
    2**32 or more, which numpy splits into two words, raises ValueError.
    """
    words = [w for n in head for w in _uint32_words(n)]
    if index is not None:
        index = np.asarray(index)
        if index.size and not 0 <= index.min() <= index.max() < 2 ** 32:
            raise ValueError("point indices must lie in [0, 2**32) to be one entropy word each")
        words.append(index.astype(np.uint32))
    return words + _uint32_words(tail)


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix: xor the running constant, advance it, multiply."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> _XSHIFT


def _pcg64_states(entropy: Sequence[int | np.ndarray], n_points: int) -> np.ndarray:
    """PCG64 state of ``default_rng(SeedSequence(words))`` per point, as an
    (n_points, 4) uint64 table of (state low, state high, inc low, inc high).

    ``entropy`` is the word list of ``_entropy_words`` for ``n_points``
    points. Its words are mixed into a pool of 4 as SeedSequence does,
    ``generate_state(4, uint64)`` reads the pool out, and PCG64's
    ``pcg_setseq_128_srandom`` seeds from the four words: inc = 2w + 1 and
    state = (inc + seed) * mult + inc mod 2**128, one LCG step. Every hash
    product is cut to 32 bits, so int words are hashed once for all points
    and uint32 arrays wrap as in C, which the hash is built on; that wrap is
    not reported as an overflow. The 128-bit seeding is done on uint64 limb
    arrays (`_add128`, `_mul128`), whose wrap is the arithmetic mod 2**64.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    with np.errstate(over="ignore"):
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        output = _hasher(_INIT_B, _MULT_B)
        words = np.empty((8, n_points), dtype=np.uint64)
        for k in range(8):
            words[k] = output(pool[k % _POOL_SIZE])
    # generate_state's uint64 words are little-endian pairs of uint32 words:
    # the seed is (high, low) = (pairs[0], pairs[1]), the increment's
    # source (pairs[2], pairs[3])
    pairs = words[0::2] | words[1::2] << 32
    inc_hi, inc_lo = pairs[2] << 1 | pairs[3] >> 63, pairs[3] << 1 | 1
    hi, lo = _mul128(*_add128(inc_hi, inc_lo, pairs[0], pairs[1]), _PCG_MULT)
    table = np.empty((n_points, 4), dtype=np.uint64)
    table[:, 1], table[:, 0] = _add128(hi, lo, inc_hi, inc_lo)
    table[:, 2], table[:, 3] = inc_lo, inc_hi
    return table


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(high, low) uint64 limbs of a + b mod 2**128; the low sum carries
    exactly when it wrapped below an addend."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(hi, lo, factor: int):
    """(high, low) uint64 limbs of (hi, lo) * factor mod 2**128.

    The low limbs' full 128-bit product comes from their 32-bit halves, whose
    four products are exact in uint64; the cross terms lo * factor_high and
    hi * factor_low only reach the high limb, so they wrap mod 2**64.
    """
    f_hi, f_lo = factor >> 64, factor & _MASK64
    x0, x1 = lo & _MASK32, lo >> 32
    y0, y1 = f_lo & _MASK32, f_lo >> 32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    middle = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    lo_product_hi = x1 * y1 + (p01 >> 32) + (p10 >> 32) + (middle >> 32)
    return lo_product_hi + lo * f_hi + hi * f_lo, lo * f_lo


# the column orders of a `_pcg64_states` table that match numpy's 128-bit
# words in memory: a native __uint128_t (low word first), or the emulated
# struct {high, low} of a compiler without one
_PCG64_LAYOUTS = ([0, 1, 2, 3], [1, 0, 3, 2])


def _pcg64_state_words(bit_generator: np.random.PCG64) -> tuple[np.ndarray, list[int]]:
    """The {state, inc} words of a PCG64 as one writable 32-byte item, and
    the `_PCG64_LAYOUTS` column order that a state table needs to be copied
    into it.

    ``bit_generator.ctypes.state_address`` is numpy's ``pcg64_state``,
    whose first member points to the ``pcg64_random_t`` {state, inc} and
    whose second, ``has_uint32``, must be 0. The four raw words are read and
    compared with what the public ``state`` getter reports, which tells the
    layouts apart; words that match no layout raise RuntimeError, and
    nothing has been written. The view is valid while ``bit_generator``
    lives.
    """
    address = bit_generator.ctypes.state_address
    struct = ctypes.c_void_p.from_address(address).value
    words = np.frombuffer((ctypes.c_uint64 * 4).from_address(struct), dtype=np.uint64)
    has_uint32 = ctypes.c_int.from_address(address + ctypes.sizeof(ctypes.c_void_p)).value
    public = bit_generator.state
    state, inc = public["state"]["state"], public["state"]["inc"]
    expected = np.array([state & _MASK64, state >> 64, inc & _MASK64, inc >> 64], dtype=np.uint64)
    for order in _PCG64_LAYOUTS:
        if np.array_equal(words, expected[order]) and has_uint32 == public["has_uint32"] == 0:
            return words.view("V32"), order
    raise RuntimeError(f"PCG64 state words {words.tolist()} (has_uint32 {has_uint32}) match no "
                       f"known layout of the reported state {public['state']} "
                       f"(has_uint32 {public['has_uint32']})")


def _draw_through_public_setter(gen: np.random.Generator, table: np.ndarray,
                                p_up: np.ndarray, shots: int) -> list[int]:
    """The binomial count of every point, each drawn after setting its
    `_pcg64_states` row through numpy's public ``bit_generator.state``
    setter: the same states and draws as the direct write, about twice as
    slow. For PCG64 words in memory that match no known layout; logs one
    WARNING per process.
    """
    _warn_unknown_layout()
    counts = []
    for (state_lo, state_hi, inc_lo, inc_hi), p in zip(table.tolist(), p_up.tolist()):
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0, "uinteger": 0}
        counts.append(gen.binomial(shots, p))
    return counts


@functools.cache
def _warn_unknown_layout() -> None:
    log.warning("numpy %s: PCG64's state words match no known layout, so sampled mode "
                "sets each point's state through the public bit_generator.state setter, "
                "about twice as slow", np.__version__)


def sampled_expectation(exact, axis: str, cfg: ShotConfig,
                        stream: tuple[int, ...] = ()):
    """Binomial shot estimate of <sigma_axis>, whose exact value is ``exact``.

    A scalar ``exact`` is one point, drawn from the RNG substream
    ``SeedSequence([seed, *stream, axis])`` and returned as a float. A 1-D
    ``exact`` is a series whose point i draws from ``[seed, *stream, i,
    axis]``, returned as an array: the series call with ``stream=(q,)``
    equals the scalar calls with ``stream=(q, i)`` bit for bit. Outcome
    probabilities ``(1 + exact) / 2`` are clipped to [0, 1]; with DEBUG on,
    one record per call names the stream and axis and counts the clips.
    """
    if cfg.mode != "sampled":
        raise ValueError("sampled_expectation requires a sampled-mode ShotConfig")
    values = np.asarray(exact, dtype=float)
    if values.ndim > 1:
        raise ValueError(f"exact must be a scalar or a 1-D series, got shape {values.shape}")
    index = None if values.ndim == 0 else np.arange(values.size)
    p_up = 0.5 * (1.0 + values.reshape(-1))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("stream %s axis %s: clipped %d of %d p_up values to [0, 1]", stream, axis,
                  np.count_nonzero((p_up < 0.0) | (p_up > 1.0)), p_up.size)
    p_up = np.clip(p_up, 0.0, 1.0)
    table = _pcg64_states(_entropy_words((cfg.seed, *stream), index, _AXIS_INDEX[axis]),
                          p_up.size)
    # one Generator for every point: each draw starts from its own state,
    # copied as one 32-byte item into the verified words, and the binomial's
    # cached setup depends only on (shots, p)
    gen = np.random.Generator(np.random.PCG64(0))
    try:
        words, order = _pcg64_state_words(gen.bit_generator)
    except RuntimeError:
        counts = _draw_through_public_setter(gen, table, p_up, cfg.shots)
    else:
        counts = []
        items = np.ascontiguousarray(table[:, order]).view("V32")[:, 0]
        for state, p in zip(items, p_up.tolist()):
            words[0] = state
            counts.append(gen.binomial(cfg.shots, p))
    estimate = 2.0 * np.array(counts, dtype=np.int64) / cfg.shots - 1.0
    return float(estimate[0]) if index is None else estimate


def voltage(sy_s, omega: float):
    """Memristive voltage -0.5 * sqrt(omega/2) * <sigma_y> (natural units)."""
    return -0.5 * math.sqrt(omega / 2.0) * np.asarray(sy_s)


def finite_difference(y: np.ndarray, dt: float) -> np.ndarray:
    """Derivative of a uniformly sampled series.

    Five-point fourth-order stencils, central inside and one-sided at the
    four boundary points; fewer than five samples raise ValueError. Fourth
    order is needed to keep the discretization residual of the current far
    below the memristive-identity tolerances at 30 steps per period.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 5:
        raise ValueError(f"need at least 5 points to differentiate, got {n}")
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dt)
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * dt)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * dt)
    d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * dt)
    d[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * dt)
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
    state. The reduced states come from one einsum per qubit, and the exact
    components from two entries per reduced state, <sigma_x> = Re(rho_10 +
    rho_01) and <sigma_y> = Im(rho_10) - Im(rho_01); sampled mode draws each
    (qubit, axis) series from its exact values with one
    ``sampled_expectation(exact, axis, shots, (q,))`` call, so point i keeps
    its own substream ``[seed, q, i, axis]``. The interaction-picture
    components are rotated to the lab frame and turned into voltage and
    current, and the gamma column comes from one ``decay_rate`` call. Raises
    NumericsError if a voltage or current is not finite (an omega so large
    that the finite difference overflows).
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
        lower, upper = reduced[:, 1, 0], reduced[:, 0, 1]
        # Tr(sigma rho) for sigma_x and sigma_y; the + 0.0 turns -0 into +0,
        # as a trace summed over zero products gives it, and the CSV prints
        # the sign of a zero
        bloch = (lower.real + upper.real + 0.0, lower.imag - upper.imag + 0.0)
        if shots.mode == "sampled":
            sx_i, sy_i = (sampled_expectation(exact, axis, shots, (q,))
                          for axis, exact in zip("xy", bloch))
        else:
            sx_i, sy_i = bloch
            _check_bloch_norm(sx_i, sy_i)
        sx_s, sy_s = ops.frame_to_schroedinger(sx_i, sy_i, t, omega)
        gamma = decay_rate(t, profiles[q])
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
