import dataclasses
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemristor import ops
from qmemristor.analysis import (ENTANGLEMENT_THRESHOLD,
                                 ORIGIN_CROSSING_FRACTION, LoopMetrics,
                                 _origin_lobes, _spin_flip, concurrence,
                                 entanglement_events, loop_metrics,
                                 split_loops)
from qmemristor.config import apply_overrides
from qmemristor.dynamics import TimeGrid
from qmemristor.errors import DimensionError, NumericsError, StateError
from qmemristor.measurement import ObservableTrace, QubitSeries
from qmemristor.presets import PRESET_NAMES, preset
from qmemristor.runner import execute

from conftest import (COUPLED_PRESETS, STATE_KINDS, assert_same_bits, preset_trajectory,
                      random_density_matrix, random_state_stack, random_unitary)


def make_trace(v, i, n_qubits=1):
    v = np.asarray(v, dtype=float)
    i = np.asarray(i, dtype=float)
    zeros = np.zeros_like(v)
    q = QubitSeries(zeros, zeros, zeros, zeros, zeros, v, i)
    return ObservableTrace(t=np.arange(v.size, dtype=float),
                           qubits=tuple([q] * n_qubits))


def polygon_loop(points):
    return np.asarray(points, dtype=float)


def star_polygon(rng, n_vertices, center=(0.0, 0.0)):
    """Random star-shaped (hence simple) polygon around ``center``."""
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=n_vertices))
    radii = rng.uniform(0.3, 1.5, size=n_vertices)
    return np.column_stack([center[0] + radii * np.cos(angles),
                            center[1] + radii * np.sin(angles)])


def convex_polygon(rng, n_vertices, center=(0.0, 0.0)):
    """Random convex polygon: points on an axis-aligned random ellipse."""
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=n_vertices))
    rx, ry = rng.uniform(0.5, 2.0, size=2)
    return np.column_stack([center[0] + rx * np.cos(angles),
                            center[1] + ry * np.sin(angles)])


def bowtie_polygon(rng):
    """Self-intersecting quad whose two lobes cross exactly at the origin."""
    slope = rng.uniform(0.3, 1.5)
    w1, w2 = rng.uniform(0.4, 2.0, size=2)
    h1, h2 = slope * w1, slope * w2
    pts = np.array([(-w1, -h1), (-w1, h1), (w2, -h2), (w2, h2)])
    return pts, w1 * h1 + w2 * h2


def monte_carlo_area(points, rng, samples=200_000):
    """Ray-casting point-in-polygon estimate; independent of the shoelace."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    box_area = np.prod(hi - lo)
    pts = rng.uniform(lo, hi, size=(samples, 2))
    x0, y0 = points[:, 0], points[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    inside = np.zeros(samples, dtype=bool)
    for a_x, a_y, b_x, b_y in zip(x0, y0, x1, y1):
        crosses = ((a_y > pts[:, 1]) != (b_y > pts[:, 1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = a_x + (pts[:, 1] - a_y) * (b_x - a_x) / (b_y - a_y)
        inside ^= crosses & (pts[:, 0] < x_at)
    return box_area * inside.mean()


def reference_crossing_point(points, edge_start):
    p = points[edge_start]
    q = points[(edge_start + 1) % len(points)]
    frac = p[0] / (p[0] - q[0])
    return p + frac * (q - p)


def reference_origin_lobes(points):
    """The lobe cutter written edge by edge and point by point: the reference
    that the array form in `analysis._origin_lobes` must match bit for bit."""
    v = points[:, 0]
    extent = float(np.hypot(points[:, 0], points[:, 1]).max())
    sign = np.where(v >= 0.0, 1, -1)
    cuts = []
    for idx in range(len(points)):
        if sign[idx] == sign[(idx + 1) % len(points)]:
            continue
        crossing = reference_crossing_point(points, idx)
        if math.hypot(crossing[0], crossing[1]) <= ORIGIN_CROSSING_FRACTION * extent:
            cuts.append(idx)
    if len(cuts) < 2:
        return [points]
    lobes = []
    for a, b in zip(cuts, cuts[1:] + [cuts[0] + len(points)]):
        chunk = [reference_crossing_point(points, a)]
        for offset in range(a + 1, b + 1):
            chunk.append(points[offset % len(points)])
        chunk.append(reference_crossing_point(points, b % len(points)))
        lobes.append(np.array(chunk))
    return lobes


def reference_loop_metrics(points):
    """Loop metrics from the reference lobes, each shoelace rolling x and y
    apart and each radius taken twice, as the per-edge cutter was used."""
    def shoelace(lobe):
        x, y = lobe[:, 0], lobe[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    edges = np.roll(points, -1, axis=0) - points
    perimeter = float(np.hypot(edges[:, 0], edges[:, 1]).sum())
    area = sum(abs(shoelace(lobe)) for lobe in reference_origin_lobes(points))
    return LoopMetrics(area=area, perimeter=perimeter,
                       form_factor=4.0 * math.pi * area / perimeter ** 2,
                       pinch_distance=float(np.hypot(points[:, 0], points[:, 1]).min()))


seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def figure_eights(draw):
    """Pinched loops I = V * (cos t + lag), jittered: the memristor's shape."""
    n = draw(st.integers(8, 80))
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False) + draw(st.floats(0, 2 * math.pi))
    v = np.sin(t)
    pts = np.column_stack([v, v * (np.cos(t) + draw(st.floats(-1.5, 1.5)))])
    jitter = draw(st.floats(0.0, 0.1))
    return pts + jitter * np.random.default_rng(draw(seeds)).normal(size=pts.shape)


@st.composite
def noisy_polygons(draw):
    """Star polygons anywhere around the origin, with vertex noise that can
    make them self-cross."""
    rng = np.random.default_rng(draw(seeds))
    pts = star_polygon(rng, draw(st.integers(3, 40)), center=rng.uniform(-1.5, 1.5, size=2))
    return pts + draw(st.floats(0.0, 0.5)) * rng.normal(size=pts.shape)


@st.composite
def zeroed_vertices(draw):
    """A drawn loop with some vertices moved onto V = +0.0 or V = -0.0."""
    pts = draw(figure_eights() | noisy_polygons()).copy()
    for idx in draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=4)):
        pts[idx, 0] = draw(st.sampled_from([0.0, -0.0]))
    return pts


@st.composite
def crossings_at_the_cut_radius(draw):
    """Two V-axis crossings, one at distance 0.05 * extent, give or take an ulp.

    The edge (-d, c) -> (d, c) crosses V = 0 at exactly (0, c), and (R, 0)
    is the farthest vertex, so the extent is exactly R.
    """
    r = draw(st.floats(0.5, 4.0))
    limit = ORIGIN_CROSSING_FRACTION * r
    c = draw(st.sampled_from([np.nextafter(limit, 0.0), limit, np.nextafter(limit, 1.0)]))
    d, e = draw(st.floats(0.01, 0.5)) * r, draw(st.floats(0.01, 0.5)) * r
    low = draw(st.floats(0.0, 0.1)) * r
    pts = np.array([(-d, c), (d, c), (r, 0.0), (e, -low), (-e, -low), (-0.5 * r, 0.0)])
    return pts[::-1].copy() if draw(st.booleans()) else pts


def bits(metrics):
    return np.array(dataclasses.astuple(metrics)).tobytes()


drawn_loops = figure_eights() | noisy_polygons() | zeroed_vertices() | crossings_at_the_cut_radius()


@st.composite
def loop_stacks(draw):
    """A (k, n, 2) stack of drawn loops, each cut to, or cyclically repeated
    up to, the point count of one of them."""
    loops = draw(st.lists(drawn_loops, min_size=1, max_size=6))
    n = len(draw(st.sampled_from(loops)))
    return np.stack([np.resize(loop, (n, 2)) for loop in loops])


def lobes_in_cut_order(loop):
    """The lobes `_origin_lobes` cuts from one loop, in cut order, or the
    loop itself when it is left uncut."""
    extents = np.hypot(loop[:, 0], loop[:, 1]).max(keepdims=True)
    owner, groups = _origin_lobes(loop[None], np.roll(loop, -1, axis=0)[None], extents)
    lobes = [None] * len(owner)
    for numbers, polygons in groups:
        for k, polygon in zip(numbers.tolist(), polygons):
            lobes[k] = polygon
    return lobes or [loop]


class TestOriginLobesMatchReference:
    @given(loop=drawn_loops, scale=st.sampled_from([1.0, 1e-3, 1e3]))
    @settings(max_examples=400, deadline=None)
    def test_lobes_and_metrics_bit_for_bit(self, loop, scale):
        loop = loop * scale
        lobes = lobes_in_cut_order(loop)
        expected = reference_origin_lobes(loop)
        assert [lobe.shape for lobe in lobes] == [lobe.shape for lobe in expected]
        # byte equality: same values and the same sign bits on zeros
        assert [lobe.tobytes() for lobe in lobes] == [lobe.tobytes() for lobe in expected]
        assert bits(loop_metrics(loop)) == bits(reference_loop_metrics(loop))


def corrupted(loop, kind):
    """A copy of ``loop`` that `loop_metrics` must reject."""
    loop = loop.copy()
    if kind == "nan":
        loop[len(loop) // 2, 0] = math.nan
    elif kind == "inf":
        loop[-1, 1] = -math.inf
    elif kind == "zero_perimeter":
        loop[:] = loop[0]
    elif kind == "overflow":  # a perimeter near 1e200, whose square overflows
        loop *= 1e200
    else:  # a perimeter near 1e-200, whose square underflows to zero
        loop *= 1e-200
    return loop


class TestStackedLoopMetrics:
    @given(stack=loop_stacks(), scale=st.sampled_from([1.0, 1e-3, 1e3]))
    @settings(max_examples=300, deadline=None)
    def test_stack_matches_reference_per_loop(self, stack, scale):
        stack = stack * scale
        metrics = loop_metrics(stack)
        assert isinstance(metrics, list)
        assert [bits(m) for m in metrics] == [bits(reference_loop_metrics(loop))
                                              for loop in stack]

    @given(stack=loop_stacks(),
           bad=st.lists(st.tuples(st.integers(0, 5),
                                  st.sampled_from(["nan", "inf", "zero_perimeter",
                                                   "underflow", "overflow"])),
                        min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_first_bad_loop_is_named(self, stack, bad):
        # each loop corrupted once, by its last kind: an overflow and an
        # underflow in turn would scale a loop back to a good one
        for k, kind in {k % len(stack): kind for k, kind in bad}.items():
            stack[k] = corrupted(stack[k], kind)
        first = min(k % len(stack) for k, _ in bad)
        with pytest.raises((ValueError, NumericsError)) as own:
            loop_metrics(stack[first])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(own.value)) as stacked:
                loop_metrics(stack)
        assert str(stacked.value) == f"{own.value} (period {first + 1})"

    @pytest.mark.parametrize("shots_mode", ["exact", "sampled"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_loop(self, name, shots_mode):
        cfg = apply_overrides(preset(name), shots_mode=shots_mode)
        result = execute(cfg)
        for q in range(len(result.trace.qubits)):
            loops = split_loops(result.trace, cfg.validate().grid, qubit=q)
            assert [bits(m) for m in result.metrics[q]] == [
                bits(reference_loop_metrics(loop)) for loop in loops]

    def test_one_loop_is_a_stack_of_one(self, rng):
        loop = star_polygon(rng, 12)
        assert loop_metrics(loop[None]) == [loop_metrics(loop)]

    def test_empty_stack(self):
        assert loop_metrics(np.zeros((0, 5, 2))) == []

    @pytest.mark.parametrize("shape", [(2, 2, 2), (5, 3), (2, 2, 5, 2), (5,)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="at least 3"):
            loop_metrics(np.ones(shape))


class TestSplitLoops:
    def test_counts(self):
        grid = TimeGrid(20, 30)
        n = grid.n_steps + 1
        t = np.linspace(0, 40 * math.pi, n)
        v, i = np.sin(t), np.cos(t)
        loops = split_loops(make_trace(v, i), grid)
        assert loops.shape == (20, 30, 2)
        # loop k is period k: samples 30k .. 30k + 29, in order
        pts = np.column_stack([v / np.abs(v).max(), i / np.abs(i).max()])
        for k, loop in enumerate(loops):
            assert np.array_equal(loop, pts[k * 30:(k + 1) * 30])

    def test_normalization_by_global_maxima(self):
        grid = TimeGrid(1, 10)
        v = np.linspace(-4.0, 4.0, 11)
        i = np.linspace(-2.0, 2.0, 11)
        loops = split_loops(make_trace(v, i), grid)
        pts = loops[0]
        assert np.abs(pts[:, 0]).max() <= 1.0 + 1e-12
        assert np.abs(pts[:, 1]).max() <= 1.0 + 1e-12

    def test_reports_dropped_fragment(self, caplog):
        grid = TimeGrid(1, 10)
        v = np.sin(np.linspace(0, 4 * math.pi, 25))  # 2 loops + 5 leftovers
        with caplog.at_level(logging.INFO, logger="qmemristor.analysis"):
            loops = split_loops(make_trace(v, v), grid)
        assert len(loops) == 2
        assert any("incomplete period" in rec.message for rec in caplog.records)

    def test_rejects_short_trace(self):
        grid = TimeGrid(1, 30)
        with pytest.raises(ValueError):
            split_loops(make_trace(np.zeros(10), np.zeros(10)), grid)

    def test_degenerate_diagonal_loops(self):
        grid = TimeGrid(2, 12)
        t = np.linspace(0, 4 * math.pi, grid.n_steps + 1)
        s = np.sin(t)
        for loop in split_loops(make_trace(s, s), grid):
            assert loop_metrics(loop).area == pytest.approx(0.0, abs=1e-12)


class TestLoopMetrics:
    def test_circle_form_factor(self):
        angles = np.linspace(0, 2 * math.pi, 1001)[:-1]
        loop = polygon_loop(np.column_stack([np.cos(angles), np.sin(angles)]))
        m = loop_metrics(loop)
        assert m.form_factor == pytest.approx(1.0, abs=1e-3)
        assert m.area == pytest.approx(math.pi, rel=1e-4)

    def test_unit_square(self):
        loop = polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1)])
        m = loop_metrics(loop)
        assert m.area == pytest.approx(1.0, abs=1e-12)
        assert m.perimeter == pytest.approx(4.0, abs=1e-12)
        assert m.form_factor == pytest.approx(math.pi / 4, abs=1e-9)
        assert m.pinch_distance == pytest.approx(0.0, abs=1e-12)

    def test_collinear_loop(self):
        loop = polygon_loop([(0, 0), (1, 1), (2, 2), (1, 1)])
        m = loop_metrics(loop)
        assert m.area == 0.0
        assert m.form_factor == 0.0

    def test_degenerate_perimeter(self):
        with pytest.raises(NumericsError, match="^degenerate loop with zero perimeter$"):
            loop_metrics(polygon_loop([(1, 1), (1, 1), (1, 1)]))

    def test_perimeter_whose_square_underflows(self):
        # 3.4e-163 squared is below the smallest subnormal, so F would
        # divide by zero; a trajectory that decays to rest gives such a loop
        loop = polygon_loop([(0, 0), (1e-163, 0), (0, 1e-163)])
        with pytest.raises(NumericsError, match=r"^loop perimeter 3\.414e-163 underflows"):
            loop_metrics(loop)
        with pytest.raises(NumericsError, match=r"squared \(period 2\)$"):
            loop_metrics(np.stack([loop * 1e163, loop]))

    @pytest.mark.parametrize("scale", [1e155, 1e308])
    def test_overflowing_loop(self, scale):
        # near 1e155 the perimeter's square overflows, near 1e308 the
        # perimeter and the shoelace themselves: either is a NumericsError,
        # never a bare OverflowError, a numpy warning or a NaN form factor
        loop = polygon_loop([(0, 0), (scale, 0), (0, scale)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError,
                               match=r"^loop overflows: area inf, squared perimeter inf$"):
                loop_metrics(loop)
            with pytest.raises(NumericsError, match=r"^loop overflows: .* \(period 2\)$"):
                loop_metrics(np.stack([loop / scale, loop]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_point(self, bad):
        # one such vertex would otherwise make every metric NaN
        with pytest.raises(ValueError, match="must be finite"):
            loop_metrics(polygon_loop([(0, 0), (1, 1), (bad, 0.5), (1, -1), (0, 0.2)]))

    def test_bowtie_sums_lobes(self):
        # signed shoelace cancels the two triangles; the lobe split keeps both
        loop = polygon_loop([(-1, -1), (-1, 1), (1, -1), (1, 1)])
        m = loop_metrics(loop)
        assert m.area == pytest.approx(2.0, abs=1e-12)
        assert m.pinch_distance == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_off_axis_convex_loop_unaffected_by_split(self):
        # a circle straddling V=0 splits into two same-orientation lobes
        # whose absolute areas recompose the full disk
        angles = np.linspace(0, 2 * math.pi, 400)[:-1]
        pts = np.column_stack([0.3 + np.cos(angles), np.sin(angles)])
        m = loop_metrics(polygon_loop(pts))
        assert m.area == pytest.approx(math.pi, rel=1e-3)

    def test_isoperimetric_bound(self, rng):
        for _ in range(200):
            m = loop_metrics(polygon_loop(star_polygon(rng, 12, center=(0.8, 0.5))))
            assert 0.0 <= m.form_factor <= 1.0 + 1e-9

    @given(angle=st.floats(0, 2 * math.pi), scale=st.floats(0.1, 10),
           dx=st.floats(-5, 5), dy=st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_similarity_invariance(self, angle, scale, dx, dy):
        # convex loops: any near-origin split is a two-cut split, which
        # recomposes the area exactly, so F cannot depend on the placement
        rng = np.random.default_rng(42)
        pts = convex_polygon(rng, 14)
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        moved = scale * pts @ rot.T + np.array([dx, dy])
        f0 = loop_metrics(polygon_loop(pts)).form_factor
        f1 = loop_metrics(polygon_loop(moved)).form_factor
        assert f1 == pytest.approx(f0, rel=1e-9)

    def test_area_against_monte_carlo(self, rng):
        # independent oracle for the shoelace path: simple polygons placed
        # anywhere, including straddling the V axis
        for _ in range(40):
            center = rng.uniform(-1, 1, size=2)
            pts = star_polygon(rng, rng.integers(6, 20), center=center)
            exact = loop_metrics(polygon_loop(pts)).area
            estimate = monte_carlo_area(pts, rng, samples=120_000)
            assert estimate == pytest.approx(exact, rel=0.01, abs=5e-3)

    def test_lobe_area_against_monte_carlo(self, rng):
        # independent oracle for the lobe-splitting path: even-odd parity
        # integrates the union of the two disjoint lobes of a bowtie
        for _ in range(10):
            pts, exact_area = bowtie_polygon(rng)
            m = loop_metrics(polygon_loop(pts))
            assert m.area == pytest.approx(exact_area, abs=1e-12)
            estimate = monte_carlo_area(pts, rng, samples=150_000)
            assert estimate == pytest.approx(exact_area, rel=0.015)


def wootters_oracle(rho):
    """Brute-force concurrence: eigenvalues of rho*rho_tilde directly."""
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    lams = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
    lams = np.sqrt(np.clip(np.sort(lams.real)[::-1], 0.0, None))
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


class TestConcurrence:
    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        assert concurrence(np.outer(bell, bell.conj())) == pytest.approx(1.0, abs=1e-10)

    def test_product_state(self, rng):
        for _ in range(20):
            rho = np.kron(random_density_matrix(rng), random_density_matrix(rng))
            assert concurrence(rho) <= 1e-10

    def test_werner_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        werner = 0.5 * np.outer(bell, bell.conj()) + 0.5 * np.eye(4) / 4
        # closed form max(0, (3p-1)/2) at p = 1/2
        assert concurrence(werner) == pytest.approx(0.25, abs=1e-9)
        assert wootters_oracle(werner) == pytest.approx(0.25, abs=1e-9)

    def test_against_bruteforce_oracle(self, rng):
        for _ in range(300):
            rho = random_density_matrix(rng, 4)
            assert concurrence(rho) == pytest.approx(wootters_oracle(rho), abs=1e-9)

    def test_bounds_on_random_states(self, rng):
        for _ in range(10_000):
            c = concurrence(random_density_matrix(rng, 4))
            assert 0.0 <= c <= 1.0

    def test_local_unitary_invariance(self, rng):
        for _ in range(100):
            rho = random_density_matrix(rng, 4)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)

    def test_rejects_single_qubit(self, rng):
        with pytest.raises(DimensionError):
            concurrence(random_density_matrix(rng, 2))
        with pytest.raises(DimensionError):
            concurrence(np.stack([random_density_matrix(rng, 2)] * 3))

    def test_rejects_nan_state(self):
        # validation, not numpy's eigh (LinAlgError), must reject it
        with pytest.raises(StateError, match="concurrence input"):
            concurrence(np.full((4, 4), np.nan))

    def test_stack_equals_per_state_calls(self, rng):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        bell = np.outer(bell, bell.conj())
        states = [bell, np.kron(random_density_matrix(rng), random_density_matrix(rng))]
        states += [p * bell + (1 - p) * np.eye(4) / 4 for p in np.linspace(0, 1, 21)]
        states += [random_density_matrix(rng, 4) for _ in range(200)]
        stack = np.stack(states)
        values = concurrence(stack)
        assert values.shape == (len(states),)
        per_state = [concurrence(rho) for rho in states]
        assert all(isinstance(c, float) for c in per_state)
        assert np.array_equal(values, per_state)

    def test_stack_names_the_bad_state(self, rng):
        stack = np.stack([random_density_matrix(rng, 4) for _ in range(4)])
        stack[2] = np.eye(4)
        with pytest.raises(StateError, match=r"concurrence input, step 3"):
            concurrence(stack)


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    return np.outer(psi, psi.conj())


class TestConcurrenceInterventionLog:
    """One DEBUG record per `concurrence` call that clamps, floors or clips."""

    def records(self, caplog, rho):
        with caplog.at_level(logging.DEBUG, logger="qmemristor.analysis"):
            concurrence(rho)
        return [r.getMessage() for r in caplog.records if r.name == "qmemristor.analysis"]

    def test_clamped_eigenvalue_of_rho(self, caplog):
        # passes validation (above -1e-10), then _psd_sqrt clamps it to 0
        rho = np.diag([0.5 + 1e-12, 0.5, 0.0, -1e-12]).astype(complex)
        [message] = self.records(caplog, rho)
        assert "clamped 1 negative eigenvalue(s) of rho (most negative -1.000e-12)" in message

    def test_floored_spectrum(self, caplog):
        # |ee>: rho_tilde is |gg><gg|, so sqrt(rho) rho_tilde sqrt(rho) = 0
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        [message] = self.records(caplog, np.stack([rho, rho]))
        assert message.startswith("concurrence of 2 state(s): clamped 0 ")
        assert "floored 8 spectrum value(s) below 1e-14" in message

    def test_clipped_concurrence(self, caplog):
        # the maximally mixed state: l1 - l2 - l3 - l4 = -1/2, clipped to 0
        [message] = self.records(caplog, np.eye(4, dtype=complex) / 4)
        assert message.endswith("floored 0 spectrum value(s) below 1e-14, "
                                "clipped 1 value(s) to [0, 1]")

    def test_silent_when_nothing_is_changed(self, caplog):
        werner = 0.9 * bell_state() + 0.1 * np.eye(4) / 4
        assert self.records(caplog, werner) == []


def reference_spin_flip(rho):
    """Wootters' rho_tilde as the two matrix products that define it."""
    flip = np.kron(ops.SIGMA_Y, ops.SIGMA_Y)
    return flip @ rho.conj() @ flip


class TestSpinFlipMatchesReference:
    @given(seed=seeds, kind=st.sampled_from(STATE_KINDS), n=st.integers(1, 40),
           single=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_random_states(self, seed, kind, n, single):
        rho = random_state_stack(np.random.default_rng(seed), kind, n, 4)
        if single:
            rho = rho[-1]
        assert_same_bits(_spin_flip(rho), reference_spin_flip(rho))

    @pytest.mark.parametrize("name", COUPLED_PRESETS)
    def test_coupled_preset_trajectories(self, name):
        rho = preset_trajectory(name)
        assert_same_bits(_spin_flip(rho), reference_spin_flip(rho))


class TestEntanglementEvents:
    def test_monotone_decay(self):
        t = np.linspace(0, 10, 50)
        c = np.exp(-t) * 0.5
        events = entanglement_events(t, c)
        kinds = [e.kind for e in events]
        assert kinds == ["death"]

    def test_all_zero(self):
        t = np.linspace(0, 10, 50)
        assert entanglement_events(t, np.zeros(50)) == []

    def test_rise_without_prior_death_is_not_birth(self):
        t = np.arange(5.0)
        c = [0.0, 0.0, 0.1, 0.2, 0.3]
        assert entanglement_events(t, c) == []

    def test_death_then_birth(self):
        t = np.arange(8.0)
        c = [0.3, 0.2, 0.0, 0.0, 0.0, 0.2, 0.3, 0.3]
        events = entanglement_events(t, c)
        assert [e.kind for e in events] == ["death", "birth"]
        assert events[0].time == 2.0
        assert events[1].time == 5.0

    def test_single_sample_dip_ignored(self):
        t = np.arange(6.0)
        c = [0.3, 0.2, 0.0, 0.2, 0.3, 0.3]
        assert entanglement_events(t, c) == []

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            entanglement_events(np.arange(5.0), np.zeros(4))

    def test_threshold_value(self):
        assert ENTANGLEMENT_THRESHOLD == 1e-4
