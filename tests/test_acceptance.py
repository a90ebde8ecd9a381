"""Acceptance suite: the nine exit criteria of the project.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s, or in
the captured output of a failing test) and asserts every stated tolerance.
Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from qmemristor import (DecayProfile, InitialState, ShotConfig, TimeGrid,
                        analytic_oracle, apply_channel, collision_step,
                        concurrence, damping_kraus, lindblad_oracle,
                        run_single)
from qmemristor.analysis import loop_metrics
from qmemristor.config import apply_overrides
from qmemristor.dynamics import theta_schedule
from qmemristor.measurement import finite_difference, sampled_expectation
from qmemristor.ops import frame_to_schroedinger
from qmemristor.presets import preset
from qmemristor.qasm import export_circuit
from qmemristor.runner import (DEFAULT_PINCH_TOL, DEFAULT_SCAN_DELTAS,
                               delta_scan, execute, run)

EXACT = ShotConfig(mode="exact")


def report(number, description, ok):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def exact_trace(config):
    return execute(apply_overrides(config, shots_mode="exact")).trace


def test_criterion_1_triple_oracle_agreement():
    started = time.perf_counter()
    init = InitialState(math.pi / 4, math.pi / 5)
    profile = DecayProfile(0.4, 1.0)
    states = run_single(init, profile, TimeGrid(4, 30))

    dev_analytic = max(np.abs(s.rho - analytic_oracle(init, profile, s.time)).max()
                       for s in states)

    final = states[-1]
    lab = lindblad_oracle(init, profile, final.time, 1e-3)
    sx_i = 2 * final.rho[0, 1].real
    sy_i = -2 * final.rho[0, 1].imag
    sx_s, sy_s = frame_to_schroedinger(sx_i, sy_i, final.time, profile.omega)
    dev_lindblad = max(abs(sx_s - 2 * lab[0, 1].real),
                       abs(sy_s - (-2 * lab[0, 1].imag)))
    elapsed = time.perf_counter() - started

    ok = dev_analytic <= 1e-9 and dev_lindblad <= 1e-6 and elapsed < 1.0
    report(1, f"triple-oracle agreement (analytic dev {dev_analytic:.2e} <= 1e-9, "
              f"lindblad dev {dev_lindblad:.2e} <= 1e-6, runtime {elapsed:.2f}s < 1s)", ok)


def identity_residual(steps_per_period):
    cfg = apply_overrides(preset("fig4"), shots_mode="exact",
                          steps_per_period=steps_per_period)
    trace = execute(cfg).trace
    q = trace.qubits[0]
    residual = np.abs(q.current - q.gamma * q.voltage).max()
    return residual / np.abs(q.current).max()


def test_criterion_2_memristive_identity():
    rel_30 = identity_residual(30)
    rel_300 = identity_residual(300)
    ratio = rel_30 / rel_300
    ok = rel_30 <= 0.02 and rel_300 <= 5e-4 and ratio >= 50.0
    report(2, f"memristive identity (residual {rel_30:.2%} <= 2% at 30 steps, "
              f"{rel_300:.4%} <= 0.05% at 300 steps, convergence ratio {ratio:.0f}x >= 50x)", ok)


def test_criterion_3_pinched_hysteresis():
    worst = {}
    areas = {}
    for name in ("fig1a", "fig1b", "fig4"):
        result = execute(apply_overrides(preset(name), shots_mode="exact"))
        worst[name] = result.max_pinch(0)
        areas[name] = [m.area for m in result.metrics[0]]
    all_pinched = all(v <= 1e-3 for v in worst.values())
    shrinks_faster = areas["fig1a"][3] < areas["fig1b"][3]
    ok = all_pinched and shrinks_faster
    report(3, f"pinched hysteresis (worst pinch: fig1a {worst['fig1a']:.1e}, "
              f"fig1b {worst['fig1b']:.1e}, fig4 {worst['fig4']:.1e}, all <= 1e-3; "
              f"period-3 area {areas['fig1a'][3]:.3f} < {areas['fig1b'][3]:.3f})", ok)


def test_criterion_4_shot_noise_model():
    # estimator spread on a <sigma>=0 state
    estimates = [sampled_expectation(0.0, "x", ShotConfig("sampled", 5000, seed))
                 for seed in range(200)]
    std = float(np.std(estimates))
    target = 1.0 / math.sqrt(5000)
    std_ok = abs(std - target) <= 0.2 * target

    # the sampled fig4 curve must track the exact curve within 5 sigma bands
    cfg = preset("fig4")
    exact = exact_trace(cfg)
    sampledrun = execute(cfg).trace
    qe, qs = exact.qubits[0], sampledrun.qubits[0]
    n = cfg.shots
    omega_t = exact.t * 1.0
    var_x = (1 - np.asarray(qe.sx_i) ** 2) / n
    var_y = (1 - np.asarray(qe.sy_i) ** 2) / n
    c, s = np.cos(omega_t), np.sin(omega_t)
    var_sx_s = c * c * var_x + s * s * var_y
    var_sy_s = s * s * var_x + c * c * var_y
    cov_xy_s = s * c * (var_x - var_y)
    k = math.sqrt(0.5)
    sigma_v = 0.5 * k * np.sqrt(var_sy_s)
    # propagate the derivative stencil exactly
    dt = float(exact.t[1] - exact.t[0])
    m = exact.t.size
    stencil = np.column_stack([finite_difference(col, dt)
                               for col in np.eye(m)])
    var_d = stencil ** 2 @ var_sy_s
    own_coeff = np.diag(stencil)
    var_i = k * k * (var_d + var_sx_s + 2 * np.abs(own_coeff * cov_xy_s))
    sigma_i = np.sqrt(var_i)
    v_dev = np.abs(np.asarray(qs.voltage) - np.asarray(qe.voltage))
    i_dev = np.abs(np.asarray(qs.current) - np.asarray(qe.current))
    band_ok = bool(np.all(v_dev <= 5 * sigma_v) and np.all(i_dev <= 5 * sigma_i))

    ok = std_ok and band_ok
    report(4, f"shot-noise model (std {std:.5f} within 20% of {target:.5f}; "
              f"sampled fig4 within 5-sigma bands pointwise: {band_ok})", ok)


def test_criterion_5_channel_correctness():
    rng = np.random.default_rng(505)
    worst_equiv = 0.0
    for _ in range(1000):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ g.conj().T
        rho /= rho.trace()
        theta = rng.uniform(0.0, math.pi / 2 * 0.9999)
        kraus = apply_channel(rho, damping_kraus(math.log(math.cos(theta))))
        worst_equiv = max(worst_equiv, np.abs(collision_step(rho, theta) - kraus).max())
    worst_complete = max(damping_kraus(k).completeness_defect()
                         for k in rng.uniform(-10.0, 0.0, size=1000))
    ok = worst_equiv <= 1e-12 and worst_complete <= 1e-12
    report(5, f"channel correctness (collision vs Kraus {worst_equiv:.1e} <= 1e-12 "
              f"on 1000 cases; completeness defect {worst_complete:.1e} <= 1e-12)", ok)


def test_criterion_6_concurrence_units():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    bell_rho = np.outer(bell, bell.conj())
    c_bell = concurrence(bell_rho)

    rng = np.random.default_rng(606)
    g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    r1 = g1 @ g1.conj().T
    r2 = g2 @ g2.conj().T
    product = np.kron(r1 / r1.trace(), r2 / r2.trace())
    c_prod = concurrence(product)

    werner = 0.5 * bell_rho + 0.5 * np.eye(4) / 4
    c_werner = concurrence(werner)
    # brute-force Wootters oracle on the same state
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    lams = np.sort(np.linalg.eigvals(werner @ flip @ werner.conj() @ flip).real)[::-1]
    lams = np.sqrt(np.clip(lams, 0.0, None))
    c_oracle = max(0.0, lams[0] - lams[1] - lams[2] - lams[3])

    ok = (abs(c_bell - 1.0) <= 1e-10 and c_prod <= 1e-10
          and abs(c_werner - 0.25) <= 1e-9 and abs(c_oracle - 0.25) <= 1e-9)
    report(6, f"concurrence units (Bell {c_bell:.12f}, product {c_prod:.1e}, "
              f"Werner {c_werner:.10f} vs oracle {c_oracle:.10f})", ok)


def test_criterion_7_form_factor_geometry():
    angles = np.linspace(0, 2 * math.pi, 1001)[:-1]
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    f_circle = loop_metrics(circle).form_factor

    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    f_square = loop_metrics(square).form_factor

    rng = np.random.default_rng(707)
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=14))
    rx, ry = rng.uniform(0.5, 2.0, size=2)
    base = np.column_stack([rx * np.cos(angles), ry * np.sin(angles)])
    f_base = loop_metrics(base).form_factor
    worst_sim = 0.0
    for _ in range(25):
        phi = rng.uniform(0, 2 * math.pi)
        scale = rng.uniform(0.1, 10)
        shift = rng.uniform(-5, 5, size=2)
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        moved = scale * base @ rot.T + shift
        f_moved = loop_metrics(moved).form_factor
        worst_sim = max(worst_sim, abs(f_moved - f_base) / f_base)

    ok = (abs(f_circle - 1.0) <= 1e-3 and abs(f_square - math.pi / 4) <= 1e-9
          and worst_sim <= 1e-9)
    report(7, f"form factor geometry (circle {f_circle:.5f}, square {f_square:.10f} "
              f"vs pi/4, similarity deviation {worst_sim:.1e} <= 1e-9)", ok)


def test_criterion_8_coupled_delta_scans():
    checks = []

    # (a) symmetric native y-y coupling
    started = time.perf_counter()
    rows7 = delta_scan(preset("fig7"), DEFAULT_SCAN_DELTAS, out_dir=None)
    t7 = time.perf_counter() - started
    trace7 = execute(apply_overrides(preset("fig7"), delta=0.1)).trace
    q1, q2 = trace7.qubits
    sym_dev = max(np.abs(np.asarray(q1.sx_i) - np.asarray(q2.sx_i)).max(),
                  np.abs(np.asarray(q1.sy_i) - np.asarray(q2.sy_i)).max())
    small_delta_pass = all(rows7[0].pinch_pass)
    esd_esb = any(r.deaths >= 1 and r.births >= 1 for r in rows7)
    checks.append(("8a symmetry", sym_dev <= 1e-11))
    checks.append(("8a small-delta pinch", small_delta_pass))
    checks.append(("8a ESD then ESB at some delta", esd_esb))
    checks.append(("8a scan under 30 s", t7 < 30.0))

    # (b) asymmetric controlled-Ry: the qubit receiving the conditional
    # rotation loses its pinch at large delta while the projector-side
    # qubit keeps it at every scanned delta (see the decisions ledger on
    # the control/target naming of this phenomenon)
    started = time.perf_counter()
    rows9 = delta_scan(preset("fig9"), DEFAULT_SCAN_DELTAS, out_dir=None)
    t9 = time.perf_counter() - started
    projector_side_all_pass = all(r.pinch_pass[0] for r in rows9)
    rotation_side_fails_large = not rows9[-1].pinch_pass[1]
    checks.append(("8b projector-side qubit pinch-passes at all delta",
                   projector_side_all_pass))
    checks.append(("8b rotation-side qubit pinch-fails at large delta",
                   rotation_side_fails_large))
    checks.append(("8b scan under 30 s", t9 < 30.0))

    # (c) every remaining interaction destroys at least one qubit's pinch
    # at the large-delta end of the scan
    for name in ("appx_xx", "appx_zz", "appx_crx", "appx_crz", "appx_pswap"):
        started = time.perf_counter()
        rows = delta_scan(preset(name), DEFAULT_SCAN_DELTAS, out_dir=None)
        elapsed = time.perf_counter() - started
        destroyed = not all(rows[-1].pinch_pass)
        checks.append((f"8c {name} pinch-fails at large delta", destroyed))
        checks.append((f"8c {name} scan under 30 s", elapsed < 30.0))

    ok = all(flag for _, flag in checks)
    failed = [label for label, flag in checks if not flag]
    report(8, "coupled delta-scan reproduction"
              + (f" (failed: {failed})" if failed else
                 f" (all {len(checks)} sub-checks, pinch tol {DEFAULT_PINCH_TOL})"), ok)


def test_criterion_9_determinism_and_format(tmp_path):
    cfg = preset("fig4")  # sampled, 5000 shots, seed 0
    first = run(cfg, tmp_path / "a")
    second = run(cfg, tmp_path / "b")
    csv_identical = ((tmp_path / "a" / "trace.csv").read_bytes()
                     == (tmp_path / "b" / "trace.csv").read_bytes()
                     and (tmp_path / "a" / "metrics.csv").read_bytes()
                     == (tmp_path / "b" / "metrics.csv").read_bytes())

    import re
    text = export_circuit(cfg)
    parts = cfg.validate()
    thetas = theta_schedule(parts.grid, parts.profile1)
    printed = [float(v) for v in re.findall(r"ctrl_ry\(2\*([0-9eE.+-]+)\)", text)]
    round_trip = (len(printed) == len(thetas)
                  and all(p == pytest.approx(t, rel=1e-11)
                          for p, t in zip(printed, thetas)))

    ok = csv_identical and round_trip
    report(9, f"determinism and format (byte-identical CSVs: {csv_identical}; "
              f"QASM theta round-trip to 12 digits: {round_trip})", ok)
