"""Hysteresis-loop geometry and two-qubit entanglement analytics.

`split_loops` cuts a trace into one (V, I) loop per drive period, and
`loop_metrics` measures a whole (n_loops, n, 2) stack of them in one pass:
row-wise arrays for the perimeters, radii and shoelace terms, one search
for every loop's near-origin crossings, and every lobe's area from running
sums of its loop's terms, each loop's metrics bit for bit those of its own
call. `concurrence` takes one two-qubit state or a stack, and logs at DEBUG
what it clamped, floored or clipped.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid
from .errors import DimensionError, NumericsError
from .linalg import dagger, require_density_matrix
from .measurement import ObservableTrace

log = logging.getLogger(__name__)

ENTANGLEMENT_THRESHOLD = 1e-4
# spectrum values of sqrt(rho) rho_tilde sqrt(rho) below this are zero modes
SPECTRUM_FLOOR = 1e-14


@dataclass(frozen=True)
class LoopMetrics:
    area: float
    perimeter: float
    form_factor: float
    pinch_distance: float


def split_loops(trace: ObservableTrace, grid: TimeGrid, qubit: int = 0) -> np.ndarray:
    """Cut a trace into per-period loops, normalized by the trace maxima.

    Voltage and current are each divided by their global absolute maximum
    before any geometry. Returns the (n_loops, steps_per_period, 2) view of
    the normalized (V, I) points, so loop k is period k. A trailing fragment
    shorter than a full period is dropped (and logged); a trace shorter than
    one period is an error.
    """
    q = trace.qubits[qubit]
    v = np.asarray(q.voltage, dtype=float)
    i = np.asarray(q.current, dtype=float)
    s = grid.steps_per_period
    if v.size < s:
        raise ValueError(f"trace has {v.size} points, need at least one period ({s})")
    v_scale = np.abs(v).max() or 1.0
    i_scale = np.abs(i).max() or 1.0
    pts = np.column_stack([v / v_scale, i / i_scale])
    n_loops = pts.shape[0] // s
    leftover = pts.shape[0] - n_loops * s
    if leftover:
        log.info("dropping %d trailing point(s) of an incomplete period", leftover)
    return pts[:n_loops * s].reshape(n_loops, s, 2)


ORIGIN_CROSSING_FRACTION = 0.05


def _lobe_areas(points: np.ndarray, nxt: np.ndarray, terms: np.ndarray,
                extents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut each loop of a (k, n, 2) stack into lobes at V sign changes that
    pass near the origin, and measure each lobe.

    A pinched figure-eight self-crosses at the origin, so only crossings of
    the V axis within ORIGIN_CROSSING_FRACTION of a loop's ``extents`` entry
    (its largest radius) cut it; crossings far from the origin belong to an
    ordinary simple loop and must not be cut (cutting a concave boundary at
    arbitrary chords does not recompose its area). Edge e of loop j runs
    from points[j, e] to nxt[j, e], with shoelace term terms[j, e].

    The lobe from cut edge a to its loop's next cut b is the polygon start,
    P[a+1], ..., P[b], end, start and end being the two edges' V = 0 points
    (each shared by two lobes, so a two-cut split is exact). Its shoelace
    sums cross(start, P[a+1]), the interior edges as a difference of the
    loop's running term sums (plus the whole loop's sum when the lobe wraps
    past the loop's end), cross(P[b], end) and cross(end, start). Returns
    the loop of each lobe and its absolute area, loops in order and each
    loop's lobes in cut order; a loop with fewer than two near crossings is
    uncut and has no lobe.
    """
    n = points.shape[1]
    loop_of, edges = np.nonzero((points[..., 0] >= 0.0) != (nxt[..., 0] >= 0.0))
    p, q = points[loop_of, edges], nxt[loop_of, edges]
    crossings = p + (p[:, 0] / (p[:, 0] - q[:, 0]))[:, None] * (q - p)
    limits = (ORIGIN_CROSSING_FRACTION * extents)[loop_of]
    near = np.hypot(crossings[:, 0], crossings[:, 1]) <= limits
    near &= np.bincount(loop_of[near], minlength=len(points))[loop_of] >= 2
    owner, cuts, starts = loop_of[near], edges[near], crossings[near]
    if not len(owner):
        return owner, np.zeros(0)
    # each lobe runs from its cut to the next cut of its loop; a loop's last
    # lobe wraps around to the loop's first cut
    following = np.arange(1, len(cuts) + 1)
    wraps = np.searchsorted(owner, owner, side="right") == following
    following[wraps] = np.searchsorted(owner, owner[wraps])
    ends, nexts = starts[following], cuts[following]
    running = np.zeros((len(points), n + 1))
    np.cumsum(terms, axis=1, out=running[:, 1:])
    interior = running[owner, nexts] - running[owner, cuts + 1]
    interior += np.where(wraps, running[owner, n], 0.0)
    twice = (_cross(starts, nxt[owner, cuts]) + interior
             + _cross(points[owner, nexts], ends) + _cross(ends, starts))
    return owner, np.abs(0.5 * twice)


def _cross(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The shoelace term p.x * q.y - q.x * p.y of each (p, q) pair."""
    return p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1]


def loop_metrics(points) -> LoopMetrics | list[LoopMetrics]:
    """Area, perimeter, form factor and pinch distance of a closed loop, or
    of each loop in a stack.

    ``points`` holds one loop's (V, I) vertices in order, shape (n, 2), or a
    (k, n, 2) stack of loops, such as `split_loops` returns; a stack gives a
    list of k LoopMetrics, each equal bit for bit to that loop's own call.
    One code path serves both, a single loop being a stack of one: the
    perimeters, radii, extents, pinch distances and shoelace terms are
    computed row by row over the stack, and the lobes of every loop are cut
    and measured in one pass (`_lobe_areas`). An uncut loop's area is the
    1-D sum of its terms; a lobe's interior is a difference of running sums,
    so a lobe agrees with its own polygon's shoelace sum to rounding, not
    bit for bit.

    The area of a pinched (self-crossing) loop is the sum, in cut order, of
    the absolute lobe areas, lobes being the arcs between near-origin sign
    changes of V; a plain signed shoelace would cancel the two halves of the
    figure-eight. The form factor 4*pi*area/perimeter^2 is 1 for a circle. A
    loop whose perimeter is zero (V = I = 0 throughout, as for a state with
    no transverse Bloch component), whose square underflows to zero, or
    whose area or squared perimeter overflows (points near 1e154 or beyond)
    raises NumericsError, and a NaN or infinite point ValueError. A stack
    raises the error of its first bad loop's own call, with "period k"
    (1-based) added.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (2, 3) or pts.shape[-1] != 2 or pts.shape[-2] < 3:
        raise ValueError(f"loop needs at least 3 (V, I) points, got shape {pts.shape}")
    stack = pts[None] if pts.ndim == 2 else pts
    finite = np.isfinite(stack).all(axis=(1, 2))
    n_finite = len(stack) if finite.all() else int(np.argmin(finite))
    # the loops before the first non-finite one; a sum or product that
    # overflows there is reported per loop below, not as a numpy warning
    stack = stack[:n_finite]
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = np.roll(stack, -1, axis=1)
        edges = nxt - stack
        perimeters = np.hypot(edges[..., 0], edges[..., 1]).sum(axis=1).tolist()
        radii = np.hypot(stack[..., 0], stack[..., 1])
        terms = _cross(stack, nxt)
        owner, lobe_areas = _lobe_areas(stack, nxt, terms, radii.max(axis=1))
        areas = np.abs(0.5 * terms.sum(axis=1))
        # a cut loop's area is its lobes' sum, in cut order, from 0
        areas[owner] = np.bincount(owner, lobe_areas, minlength=len(stack))[owner]
    metrics = [LoopMetrics(area=area, perimeter=perimeter,
                           form_factor=_form_factor(area, perimeter, pts, k),
                           pinch_distance=pinch)
               for k, (area, perimeter, pinch)
               in enumerate(zip(areas.tolist(), perimeters, radii.min(axis=1).tolist()))]
    if n_finite < len(finite):
        raise ValueError("loop points must be finite" + _period(pts, n_finite))
    return metrics[0] if pts.ndim == 2 else metrics


def _form_factor(area: float, perimeter: float, pts: np.ndarray, k: int) -> float:
    """4*pi*area/perimeter^2 of loop k, or NumericsError naming its period
    when the perimeter is zero, its square underflows, or the perimeter,
    its square or the area overflows."""
    if perimeter == 0.0:
        raise NumericsError("degenerate loop with zero perimeter" + _period(pts, k))
    try:
        squared = perimeter ** 2
    except OverflowError:  # a float power raises where a product gives inf
        squared = math.inf
    if squared == 0.0:
        raise NumericsError(f"loop perimeter {perimeter:.3e} underflows when squared"
                            + _period(pts, k))
    if not (math.isfinite(squared) and math.isfinite(area)):
        raise NumericsError(f"loop overflows: area {area:.3e}, squared perimeter {squared:.3e}"
                            + _period(pts, k))
    return 4.0 * math.pi * area / squared


def _period(pts: np.ndarray, k: int) -> str:
    """The suffix naming loop k of a stack as its period, empty for one loop."""
    return f" (period {k + 1})" if pts.ndim == 3 else ""


_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit state, or of each state in a stack.

    C = max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    eigenvalues of rho * (sy (x) sy) * conj(rho) * (sy (x) sy). Computed here
    through the Hermitian form sqrt(rho) rho_tilde sqrt(rho), which shares its
    spectrum with the product. The spin flip rho_tilde is a signed reversal
    of conj(rho), with no matrix product (see `_spin_flip`). A 4x4 state
    gives a float; a stack of shape (n, 4, 4) is validated and decomposed in
    batched calls and gives an (n,) array equal to the per-state values.

    References
    ----------
    https://en.wikipedia.org/wiki/Concurrence_(quantum_computing)
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise DimensionError(f"concurrence expects a 4x4 state, got {rho.shape}")
    require_density_matrix(rho, 4, context="concurrence input")
    return _wootters_concurrence(rho)


def _wootters_concurrence(rho: np.ndarray) -> float | np.ndarray:
    """`concurrence` of a complex 4x4 state or (n, 4, 4) stack that is
    already validated, such as a trajectory `dynamics.run_coupled` returns."""
    sqrt_rho, evals = _psd_sqrt(rho)
    m = sqrt_rho @ _spin_flip(rho) @ sqrt_rho
    # in place, sparing a stack-sized temporary (dagger(m) is a copy, not a view)
    m += dagger(m)
    m *= 0.5
    lams = np.linalg.eigvalsh(m)[..., ::-1]
    # the square root turns O(eps) spectral noise into O(1e-8); anything
    # below this floor is unresolvable and belongs to the zero modes
    floored = lams < SPECTRUM_FLOOR
    lams = np.sqrt(np.where(floored, 0.0, lams))
    c = lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]
    if log.isEnabledFor(logging.DEBUG):
        _log_interventions(evals, floored, c)
    c = np.clip(c, 0.0, 1.0)  # elementwise, and keeps NaN
    return float(c) if rho.ndim == 2 else c


def _log_interventions(evals: np.ndarray, floored: np.ndarray, c: np.ndarray) -> None:
    """One DEBUG record of what a `concurrence` call changed silently: the
    negative eigenvalues of rho that `_psd_sqrt` clamped to 0 (with the most
    negative one), the spectrum values floored to 0, and the concurrences
    clipped to [0, 1]. Nothing is logged when all three counts are zero."""
    clamped = np.count_nonzero(evals < 0.0)
    n_floored = np.count_nonzero(floored)
    clipped = np.count_nonzero((c < 0.0) | (c > 1.0))
    if clamped or n_floored or clipped:
        log.debug("concurrence of %d state(s): clamped %d negative eigenvalue(s) of rho "
                  "(most negative %.3e), floored %d spectrum value(s) below %.0e, "
                  "clipped %d value(s) to [0, 1]", c.size, clamped,
                  min(float(evals.min()), 0.0), n_floored, SPECTRUM_FLOOR, clipped)


def _spin_flip(rho: np.ndarray) -> np.ndarray:
    """rho_tilde = (sy (x) sy) conj(rho) (sy (x) sy) of a 4x4 matrix or stack.

    sy (x) sy is a signed reversal of the basis, so rho_tilde is conj(rho)
    with both indices reversed and entry (j, k) multiplied by s_j s_k,
    s = (-1, 1, 1, -1). Adding +0.0 turns -0 into +0, as the matrix
    product's sums do, so the two agree bit for bit.
    """
    flipped = rho.conj()[..., ::-1, ::-1] * _FLIP_SIGNS
    flipped += 0.0
    return flipped


def _psd_sqrt(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square root of a Hermitian state (or stack) through its eigenbasis,
    and the eigenvalues as `eigh` gave them, before the clamp."""
    evals, vecs = np.linalg.eigh(rho)
    clamped = np.where(evals < 0.0, 0.0, evals)  # clamp the >= -1e-10 tail
    return (vecs * np.sqrt(clamped)[..., None, :]) @ dagger(vecs), evals


@dataclass(frozen=True)
class EntanglementEvent:
    kind: str  # "death" or "birth"
    time: float


def entanglement_events(t, c) -> list[EntanglementEvent]:
    """Sudden-death and sudden-birth events of a concurrence time series.

    ``c[k]`` is the concurrence at time ``t[k]``. A death is a downward
    crossing of the threshold sustained for at least two consecutive
    samples, or a downward crossing at the last sample, which no later
    sample can show to be a one-sample dip; a birth is the next upward
    crossing after a death.
    """
    t = np.asarray(t, dtype=float).tolist()
    c = np.asarray(c, dtype=float).tolist()
    if len(t) != len(c):
        raise ValueError(f"got {len(t)} times for {len(c)} concurrence values")
    events: list[EntanglementEvent] = []
    if not c:
        return events
    above = c[0] > ENTANGLEMENT_THRESHOLD
    dead = False
    for idx in range(1, len(c)):
        if above and c[idx] <= ENTANGLEMENT_THRESHOLD:
            if idx + 1 == len(c) or c[idx + 1] <= ENTANGLEMENT_THRESHOLD:
                events.append(EntanglementEvent("death", t[idx]))
                above = False
                dead = True
            # a one-sample dip is threshold noise, not a death
        elif not above and c[idx] > ENTANGLEMENT_THRESHOLD:
            if dead:
                events.append(EntanglementEvent("birth", t[idx]))
            above = True
    return events
