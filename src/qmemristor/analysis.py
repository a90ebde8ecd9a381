"""Hysteresis-loop geometry and two-qubit entanglement analytics."""

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


def _shoelace(points: np.ndarray) -> float:
    nxt = np.roll(points, -1, axis=0)
    return 0.5 * float(np.sum(points[:, 0] * nxt[:, 1] - nxt[:, 0] * points[:, 1]))


def _origin_lobes(points: np.ndarray, nxt: np.ndarray, extent: float) -> list[np.ndarray]:
    """Cut the cycle into lobes at V sign changes that pass near the origin.

    A pinched figure-eight self-crosses at the origin, so only crossings of
    the V axis within ORIGIN_CROSSING_FRACTION of the loop ``extent`` (its
    largest radius) count as cut points; crossings far from the origin
    belong to an ordinary simple loop and must not be cut (cutting a concave
    boundary at arbitrary chords does not recompose its area). ``nxt`` is
    the loop rolled by one point, so edge k runs from points[k] to nxt[k].
    The interpolated V = 0 point of a qualifying edge joins both adjacent
    lobes, making a two-cut split exact.
    """
    edges = np.flatnonzero((points[:, 0] >= 0.0) != (nxt[:, 0] >= 0.0))
    p, q = points[edges], nxt[edges]
    crossings = p + (p[:, 0] / (p[:, 0] - q[:, 0]))[:, None] * (q - p)
    limit = ORIGIN_CROSSING_FRACTION * extent
    near = [k for k, (x, y) in enumerate(crossings.tolist()) if math.hypot(x, y) <= limit]
    if len(near) < 2:
        return [points]
    cuts = edges[near]
    starts = crossings[near]
    stops = np.append(cuts[1:], cuts[0] + len(points))
    ring = np.concatenate([points, points])
    return [np.concatenate([start[None], ring[a + 1:b + 1], end[None]])
            for a, b, start, end in zip(cuts.tolist(), stops.tolist(),
                                        starts, np.roll(starts, -1, axis=0))]


def loop_metrics(points) -> LoopMetrics:
    """Area, perimeter, form factor and pinch distance of a closed loop.

    ``points`` holds the loop's (V, I) vertices, shape (n, 2), in order.

    The area of a pinched (self-crossing) loop is the sum of the absolute
    lobe areas, lobes being the arcs between near-origin sign changes of V;
    a plain signed shoelace would cancel the two halves of the figure-eight.
    The form factor 4*pi*area/perimeter^2 is 1 for a circle. A loop of zero
    perimeter (V = I = 0 throughout, as for a state with no transverse Bloch
    component) raises NumericsError, and a NaN or infinite point ValueError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError(f"loop needs at least 3 (V, I) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("loop points must be finite")
    nxt = np.roll(pts, -1, axis=0)
    edges = nxt - pts
    perimeter = float(np.hypot(edges[:, 0], edges[:, 1]).sum())
    if perimeter == 0.0:
        raise NumericsError("degenerate loop with zero perimeter")
    radii = np.hypot(pts[:, 0], pts[:, 1])
    area = sum(abs(_shoelace(lobe)) for lobe in _origin_lobes(pts, nxt, float(radii.max())))
    form = 4.0 * math.pi * area / perimeter ** 2
    return LoopMetrics(area=area, perimeter=perimeter, form_factor=form,
                       pinch_distance=float(radii.min()))


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
    sqrt_rho = _psd_sqrt(rho)
    m = sqrt_rho @ _spin_flip(rho) @ sqrt_rho
    # in place, sparing a stack-sized temporary (dagger(m) is a copy, not a view)
    m += dagger(m)
    m *= 0.5
    lams = np.linalg.eigvalsh(m)[..., ::-1]
    # the square root turns O(eps) spectral noise into O(1e-8); anything
    # below this floor is unresolvable and belongs to the zero modes
    lams = np.sqrt(np.where(lams < 1e-14, 0.0, lams))
    c = lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]
    c = np.clip(c, 0.0, 1.0)  # elementwise, and keeps NaN
    return float(c) if rho.ndim == 2 else c


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


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian state (or stack) through its eigenbasis."""
    evals, vecs = np.linalg.eigh(rho)
    evals = np.where(evals < 0.0, 0.0, evals)  # clamp the >= -1e-10 tail
    return (vecs * np.sqrt(evals)[..., None, :]) @ dagger(vecs)


@dataclass(frozen=True)
class EntanglementEvent:
    kind: str  # "death" or "birth"
    time: float


def entanglement_events(t, c) -> list[EntanglementEvent]:
    """Sudden-death and sudden-birth events of a concurrence time series.

    ``c[k]`` is the concurrence at time ``t[k]``. A death is a downward
    crossing of the threshold sustained for at least two consecutive
    samples; a birth is the next upward crossing after a death.
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
