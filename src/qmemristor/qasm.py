"""OpenQASM 2.0 export of the full ancilla-explicit simulation circuit.

One ancilla per evolution step per memristor, as the hardware realization
demands. The excited state is encoded as |1> and the ground state as |0>, so
the damping collision is the textbook pair: a system-controlled Ry on the
fresh ancilla followed by an ancilla-controlled NOT back on the system.

Under that encoding the simulator operators map as X sigma X per qubit:
sigma_x and the native two-qubit couplings are unchanged, while sigma_y and
sigma_z pick up a sign. The emitted controlled-rotation angles and the
final measurement basis changes already absorb those signs, so the counts of
the terminal measurement estimate the simulator-frame expectation values
directly (z-basis counts after the basis change give <sigma_axis>).
"""

from __future__ import annotations

import math

from .config import RunConfig
from .dynamics import theta_schedule
from .errors import ConfigError

DEFAULT_ANCILLA_CAP = 640

_GATE_DEFS = {
    "ctrl_ry": ("gate ctrl_ry(theta) a,b { ry(theta/2) b; cx a,b; "
                "ry(-theta/2) b; cx a,b; }"),
    "ctrl_rz": ("gate ctrl_rz(theta) a,b { rz(theta/2) b; cx a,b; "
                "rz(-theta/2) b; cx a,b; }"),
    "ctrl_rx": ("gate ctrl_rx(theta) a,b { h b; rz(theta/2) b; cx a,b; "
                "rz(-theta/2) b; cx a,b; h b; }"),
}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def export_circuit(config: RunConfig, axis: str = "x",
                   max_ancillas: int = DEFAULT_ANCILLA_CAP) -> str:
    """Emit the run's full circuit as OpenQASM 2.0 text.

    ``axis`` selects the terminal measurement basis (x or y). Raises
    ConfigError when the grid needs more ancillas than ``max_ancillas``.
    """
    if axis not in ("x", "y"):
        raise ConfigError(f"measurement axis must be 'x' or 'y', got {axis!r}")
    parts = config.validate()
    n_mem = 1 if config.mode == "single" else 2
    n_steps = parts.grid.n_steps
    total_anc = n_steps * n_mem
    if total_anc > max_ancillas:
        raise ConfigError(
            f"{total_anc} ancillas needed ({n_steps} steps x {n_mem} memristors) "
            f"exceed the register cap {max_ancillas}")

    thetas = [theta_schedule(parts.grid, p) for p in parts.profiles]
    spec = parts.interaction
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"// qmemristor run {config.name!r}: {config.mode}, "
        f"{config.periods} periods x {config.steps_per_period} steps",
        "// encoding: excited |e> -> |1>, ground |g> -> |0>",
        f"// terminal measurement: <sigma_{axis}> per system qubit",
    ]
    needed = {"ctrl_ry"}
    if spec.kind == "controlled_rotation":
        needed.add(f"ctrl_r{spec.axis}")
    lines += [_GATE_DEFS[name] for name in sorted(needed)]
    lines.append(f"qreg sys[{n_mem}];")
    for m in range(n_mem):
        lines.append(f"qreg anc{m + 1}[{n_steps}];")
    lines.append(f"creg c[{n_mem}];")

    inits = [parts.init1] + ([parts.init2] if n_mem == 2 else [])
    for m, init in enumerate(inits):
        lines.append(f"u3({_fmt(math.pi - 2.0 * init.a)},{_fmt(-init.b)},0) sys[{m}];")

    for i in range(n_steps):
        for m in range(n_mem):
            lines.append(f"ctrl_ry(2*{_fmt(thetas[m][i])}) sys[{m}],anc{m + 1}[{i}];")
            lines.append(f"cx anc{m + 1}[{i}],sys[{m}];")
        if n_mem == 2 and spec.kind != "none":
            lines += _interaction_lines(spec)

    for m in range(n_mem):
        if axis == "x":
            lines.append(f"h sys[{m}];")
        else:
            lines.append(f"s sys[{m}];")
            lines.append(f"h sys[{m}];")
        lines.append(f"measure sys[{m}] -> c[{m}];")
    return "\n".join(lines) + "\n"


def _zz_core(angle: float) -> list[str]:
    """exp(-i*angle*Z(x)Z) on the two system qubits."""
    return ["cx sys[0],sys[1];", f"rz({_fmt(2.0 * angle)}) sys[1];",
            "cx sys[0],sys[1];"]


def _interaction_lines(spec) -> list[str]:
    # a step conjugates as A^dag rho A: the adjoint gate, angle -delta
    d = -spec.delta
    if spec.kind == "native":
        if spec.axis == "z":
            return _zz_core(d)
        if spec.axis == "x":
            wrap = ["h sys[0];", "h sys[1];"]
            return wrap + _zz_core(d) + wrap
        fwd = ["rx(pi/2) sys[0];", "rx(pi/2) sys[1];"]
        rev = ["rx(-pi/2) sys[0];", "rx(-pi/2) sys[1];"]
        return fwd + _zz_core(d) + rev
    if spec.kind == "partial_swap":
        # exchange = commuting XX and YY halves
        wrap_x = ["h sys[0];", "h sys[1];"]
        fwd = ["rx(pi/2) sys[0];", "rx(pi/2) sys[1];"]
        rev = ["rx(-pi/2) sys[0];", "rx(-pi/2) sys[1];"]
        return (wrap_x + _zz_core(d / 2.0) + wrap_x
                + fwd + _zz_core(d / 2.0) + rev)
    # controlled rotation: |1><1| control under the hardware encoding;
    # conjugating by X(x)X flips the sign of the y and z rotation angles
    hw_angle = d if spec.axis == "x" else -d
    return [f"ctrl_r{spec.axis}({_fmt(hw_angle)}) sys[0],sys[1];"]
