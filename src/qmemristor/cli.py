"""Command-line driver.

Verbs: ``run`` (one simulation), ``scan`` (coupling-strength sweep),
``export-qasm`` (circuit text), ``presets`` (catalog listing). The first three
are built by one helper: a ``--preset``/``--config`` selection, one flag per
``_OVERRIDES`` field (``--exact``/``--sampled`` both set ``shots_mode``;
``scan`` has no ``--delta`` field flag, its ``--delta`` is the list to sweep)
and ``--out``, and ``-v/--log-level`` sends the package's log records at
that level and above to stderr; without it stderr carries only errors.
Each verb's parser names its handler, which ``main`` calls.
Exit codes: 0 success, 2 configuration error, 3 numerical failure or a run
too large for memory (one stderr line, no traceback), 4 I/O error. Any other
exception, a bare ValueError included, is a defect and surfaces as a
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from pathlib import Path

import numpy as np

from . import qasm, runner
from .config import RunConfig, apply_overrides, load_config
from .errors import ConfigError, NumericsError
from .presets import PRESET_NAMES, PRESET_NOTES, preset

# the RunConfig fields that a run-style verb's flags can override
_OVERRIDES = ("shots", "seed", "steps_per_period", "periods", "delta", "shots_mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmemristor",
        description="Digital simulation of dissipative two-level quantum memristors.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_verb(sub, "run", "execute one configured simulation", _cmd_run)

    scan_p = _add_run_verb(sub, "scan", "sweep the coupling strength of a coupled run",
                           _cmd_scan, with_delta=False)
    scan_p.add_argument("--delta", dest="delta_list", default=None,
                        help="comma-separated coupling strengths "
                             "(default: 10 points in [0.1, 1.0])")

    qasm_p = _add_run_verb(sub, "export-qasm", "write the run's circuit as OpenQASM 2.0",
                           _cmd_export)
    qasm_p.add_argument("--axis", choices=("x", "y"), default="x",
                        help="terminal measurement basis")
    qasm_p.add_argument("--ancilla-cap", type=int, default=qasm.DEFAULT_ANCILLA_CAP,
                        help="largest allowed total ancilla register")

    sub.add_parser("presets", help="list the preset catalog").set_defaults(handler=_cmd_presets)
    return parser


def _add_run_verb(sub, name: str, summary: str, handler,
                  with_delta: bool = True) -> argparse.ArgumentParser:
    """Add a verb that selects a config, overrides its fields and writes
    under ``--out``; ``main`` calls ``handler(args)`` for it."""
    p = sub.add_parser(name, help=summary)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES, help="preset name")
    group.add_argument("--config", help="path to a key-value config file")
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--steps-per-period", type=int)
    p.add_argument("--periods", type=int)
    if with_delta:
        p.add_argument("--delta", type=float)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="shots_mode", action="store_const", const="exact",
                      help="exact expectation values (no shot noise)")
    mode.add_argument("--sampled", dest="shots_mode", action="store_const", const="sampled",
                      help="finite-shot binomial sampling")
    p.add_argument("--out", default="out", help="output directory root")
    p.add_argument("-v", "--log-level", type=str.lower, choices=("debug", "info", "warning"),
                   help="print the run's log records at this level and above to stderr")
    p.set_defaults(handler=handler)
    return p


def _select_config(args) -> RunConfig:
    cfg = preset(args.preset) if args.preset else load_config(args.config)
    return apply_overrides(cfg, **{name: getattr(args, name, None) for name in _OVERRIDES})


def _cmd_run(args) -> int:
    cfg = _select_config(args)
    result = runner.run(cfg, Path(args.out) / cfg.name)
    print(runner.summary_text(result))
    return 0


def _cmd_scan(args) -> int:
    cfg = _select_config(args)
    if args.delta_list is None:
        deltas = runner.DEFAULT_SCAN_DELTAS
    else:
        try:
            deltas = tuple(float(part) for part in args.delta_list.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --delta list {args.delta_list!r}") from exc
    out = Path(args.out) / f"{cfg.name}_scan"
    rows = runner.delta_scan(cfg, deltas, out)
    print(f"scan {cfg.name}: {len(rows)} points, pinch tolerance {runner.PINCH_TOL:g}")
    for r in rows:
        flags = "/".join("pass" if ok else "FAIL" for ok in r.pinch_pass)
        print(f"  delta={r.delta:.4f}  mean F: q1={r.mean_f[0]:.3f} q2={r.mean_f[1]:.3f}"
              f"  pinch: {flags}  ESD={r.deaths} ESB={r.births}")
    print(f"  wrote: {out / 'scan_summary.csv'}")
    return 0


def _cmd_export(args) -> int:
    cfg = _select_config(args)
    text = qasm.export_circuit(cfg, axis=args.axis, max_ancillas=args.ancilla_cap)
    path = Path(args.out) / f"{cfg.name}_{args.axis}.qasm"
    runner._write_text(path, text)
    print(f"wrote {path}")
    return 0


def _cmd_presets(args) -> int:
    width = max(len(name) for name in PRESET_NAMES)
    for name in PRESET_NAMES:
        print(f"{name:<{width}}  {PRESET_NOTES[name]}")
    return 0


@contextlib.contextmanager
def _log_to_stderr(level: str | None):
    """Send the package's records at ``level`` and above to stderr while the
    command runs; ``None`` leaves logging as it is."""
    if level is None:
        yield
        return
    logger = logging.getLogger("qmemristor")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.addHandler(handler)
    logger.setLevel(level.upper())
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _log_to_stderr(getattr(args, "log_level", None)):
        try:
            return args.handler(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (NumericsError, np.linalg.LinAlgError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 4
        except MemoryError as exc:
            # numpy raises it for an array larger than memory before allocating
            print(f"out of memory: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
