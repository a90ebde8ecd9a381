"""The exported circuit text is validated two ways: structurally (registers,
gate counts, 12-digit angle round-trip) and semantically, by replaying the
emitted gates in a small statevector interpreter and checking the terminal
z-basis expectation against the density-matrix simulation."""

import math
import re

import numpy as np
import pytest

from qmemristor.config import RunConfig
from qmemristor.dynamics import run_coupled, run_single, theta_schedule
from qmemristor.errors import ConfigError
from qmemristor.linalg import partial_trace
from qmemristor.measurement import exact_expectation
from qmemristor.presets import preset
from qmemristor.qasm import export_circuit

SINGLE_SMALL = RunConfig(name="tiny", mode="single", a1=math.pi / 4, b1=math.pi / 5,
                         gamma0_1=0.4, periods=1, steps_per_period=8)


def coupled_small(kind, axis="y"):
    return RunConfig(name="tiny2", mode="coupled",
                     a1=0.6, b1=0.8, gamma0_1=0.3,
                     a2=1.1, b2=2.5, gamma0_2=0.15,
                     periods=1, steps_per_period=8,
                     interaction=kind, axis=axis, delta=0.37)


# --- a tiny OpenQASM interpreter (only the constructs this exporter emits) ---

def _angle(expr):
    return float(eval(expr, {"__builtins__": {}}, {"pi": math.pi}))


def _u3(theta, phi, lam):
    return np.array([
        [math.cos(theta / 2), -np.exp(1j * lam) * math.sin(theta / 2)],
        [np.exp(1j * phi) * math.sin(theta / 2),
         np.exp(1j * (phi + lam)) * math.cos(theta / 2)],
    ])


def _rot(axis, theta):
    paulis = {"x": np.array([[0, 1], [1, 0]]),
              "y": np.array([[0, -1j], [1j, 0]]),
              "z": np.diag([1, -1])}
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * paulis[axis]


_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_S = np.diag([1, 1j])
_X = np.array([[0, 1], [1, 0]])


class MiniQasm:
    def __init__(self, text):
        self.qubits = {}
        self.n = 0
        self.state = None
        self.measured = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith(("//", "OPENQASM", "include", "gate",
                                            "creg")):
                continue
            self._exec(line.rstrip(";"))

    def _exec(self, line):
        if line.startswith("qreg"):
            name, size = re.match(r"qreg (\w+)\[(\d+)\]", line).groups()
            for k in range(int(size)):
                self.qubits[f"{name}[{k}]"] = self.n
                self.n += 1
            return
        if self.state is None:
            self.state = np.zeros(2 ** self.n, dtype=complex)
            self.state[0] = 1.0
        if line.startswith("measure"):
            src, dst = re.match(r"measure (\S+) -> (\S+)", line).groups()
            self.measured[dst] = self.qubits[src]
            return
        m = re.match(r"(\w+)(?:\(([^)]*)\))? (.+)", line)
        gate, args, targets = m.groups()
        targets = [self.qubits[t.strip()] for t in targets.split(",")]
        if gate == "u3":
            th, ph, la = (_angle(a) for a in args.split(","))
            self._apply1(_u3(th, ph, la), targets[0])
        elif gate in ("rx", "ry", "rz"):
            self._apply1(_rot(gate[1], _angle(args)), targets[0])
        elif gate == "h":
            self._apply1(_H, targets[0])
        elif gate == "s":
            self._apply1(_S, targets[0])
        elif gate == "cx":
            self._apply_ctrl(_X, targets[0], targets[1])
        elif gate in ("ctrl_rx", "ctrl_ry", "ctrl_rz"):
            self._apply_ctrl(_rot(gate[-1], _angle(args)), targets[0], targets[1])
        else:
            raise AssertionError(f"interpreter does not know gate {gate!r}")

    def _apply1(self, u, q):
        psi = self.state.reshape(2 ** q, 2, -1)
        self.state = np.einsum("ab,ibj->iaj", u, psi).reshape(-1)

    def _apply_ctrl(self, u, ctrl, tgt):
        psi = np.moveaxis(self.state.reshape([2] * self.n), [ctrl, tgt], [0, 1])
        shape = psi.shape
        psi = psi.reshape(2, 2, -1).copy()
        psi[1] = np.einsum("ab,bj->aj", u, psi[1])
        self.state = np.moveaxis(psi.reshape(shape), [0, 1], [ctrl, tgt]).reshape(-1)

    def z_expectation(self, qubit):
        probs = np.abs(self.state.reshape([2] * self.n)) ** 2
        marg = probs.sum(axis=tuple(i for i in range(self.n) if i != qubit))
        return float(marg[0] - marg[1])


def simulated_bloch(config, axis):
    """<sigma_axis> of each system qubit from the density-matrix engine."""
    parts = config.validate()
    if config.mode == "single":
        final = run_single(parts.init1, parts.profile1, parts.grid)[-1].rho
        return [exact_expectation(final, axis)]
    final = run_coupled(parts.init1, parts.init2, parts.profile1, parts.profile2,
                        parts.grid, [parts.interaction])[0, -1]
    return [exact_expectation(partial_trace(final, q + 1), axis) for q in (0, 1)]


class TestStructure:
    def test_minimal_circuit_layout(self):
        text = export_circuit(SINGLE_SMALL)
        assert "qreg sys[1];" in text
        assert "qreg anc1[8];" in text
        assert text.count("ctrl_ry(2*") == 8
        assert text.count("cx anc1[") == 8
        assert text.count("measure sys") == 1
        order = [text.index("u3("), text.index("ctrl_ry(2*"), text.index("cx anc1[0]"),
                 text.index("h sys[0]"), text.index("measure sys")]
        assert order == sorted(order)

    def test_fig4_ancilla_count(self):
        text = export_circuit(preset("fig4"))
        assert "qreg anc1[120];" in text

    def test_coupled_registers(self):
        text = export_circuit(coupled_small("native"))
        assert "qreg sys[2];" in text
        assert "qreg anc1[8];" in text
        assert "qreg anc2[8];" in text
        assert text.count("measure sys") == 2

    def test_theta_round_trip(self):
        cfg = preset("fig4")
        text = export_circuit(cfg)
        parts = cfg.validate()
        expected = theta_schedule(parts.grid, parts.profile1)
        printed = [float(v) for v in re.findall(r"ctrl_ry\(2\*([0-9eE.+-]+)\)", text)]
        assert len(printed) == len(expected)
        for got, want in zip(printed, expected):
            assert got == pytest.approx(want, rel=1e-11)

    def test_ancilla_cap(self):
        with pytest.raises(ConfigError):
            export_circuit(preset("fig7"))  # 2400 ancillas > 640
        export_circuit(preset("fig7"), max_ancillas=2400)

    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            export_circuit(SINGLE_SMALL, axis="z")


class TestSemantics:
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_single_memristor(self, axis):
        text = export_circuit(SINGLE_SMALL, axis=axis)
        vm = MiniQasm(text)
        expected = simulated_bloch(SINGLE_SMALL, axis)
        assert vm.z_expectation(vm.measured["c[0]"]) == pytest.approx(expected[0], abs=1e-9)

    @pytest.mark.parametrize("kind,axis", [
        ("native", "x"),
        ("native", "y"),
        ("native", "z"),
        ("controlled_rotation", "x"),
        ("controlled_rotation", "y"),
        ("controlled_rotation", "z"),
        ("partial_swap", "y"),
    ])
    def test_coupled_interactions(self, kind, axis):
        cfg = coupled_small(kind, axis)
        for meas_axis in ("x", "y"):
            vm = MiniQasm(export_circuit(cfg, axis=meas_axis))
            expected = simulated_bloch(cfg, meas_axis)
            for q in (0, 1):
                got = vm.z_expectation(vm.measured[f"c[{q}]"])
                assert got == pytest.approx(expected[q], abs=1e-9), (kind, axis, q)
