#!/usr/bin/env python3
"""Hash every output file of every preset, and of scans, to prove a change byte-identical.

Usage: PYTHONPATH=src python scripts/golden.py > golden.txt

Each preset runs once per shot mode; fig9 runs a five-delta ``delta_scan``
in each shot mode, and every coupled preset a three-delta exact scan, so
the batched scan path is hashed for every gate kind. Each preset run also
hashes its ``runner.summary_text`` without the ``wrote:`` line (which holds
the temporary path), so the per-period pinch distances and form factors and
the entanglement event times, which no CSV holds, are covered too.
Everything runs in a temporary directory that is removed afterwards. The
OpenQASM export of every preset is hashed too, for both measurement axes.
One line per CSV, SVG, summary or export, in a fixed order:

    <sha256>  <preset>/<mode>/<file>
    <sha256>  <preset>/<mode>/summary.txt
    <sha256>  fig9_scan/<mode>/<delta dir>/<file>
    <sha256>  fig9_scan/<mode>/scan_summary.csv
    <sha256>  <coupled preset>_scan3/<delta dir>/<file>
    <sha256>  <coupled preset>_scan3/scan_summary.csv
    <sha256>  <preset>/qasm_<axis>.qasm

Run it before and after a change and diff the two outputs.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from qmemristor import runner
from qmemristor.config import apply_overrides
from qmemristor.presets import PRESET_NAMES, preset
from qmemristor.qasm import export_circuit

SCAN_DELTAS = (0.1, 0.2, 0.3, 0.4, 0.5)
SHORT_SCAN_DELTAS = (0.1, 0.55, 1.0)
# the coupled presets need 20 periods x 60 steps x 2 memristors
QASM_MAX_ANCILLAS = 2400


def _print_hash(data: bytes, label: str) -> None:
    print(f"{hashlib.sha256(data).hexdigest()}  {label}", flush=True)


def _hash_tree(root: Path, label: str) -> None:
    files = sorted(p for p in root.rglob("*") if p.suffix in (".csv", ".svg"))
    for path in files:
        _print_hash(path.read_bytes(), f"{label}/{path.relative_to(root).as_posix()}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESET_NAMES:
            for mode in ("exact", "sampled"):
                out = Path(tmp) / name / mode
                result = runner.run(apply_overrides(preset(name), shots_mode=mode), out)
                _hash_tree(out, f"{name}/{mode}")
                summary = [line for line in runner.summary_text(result).splitlines()
                           if not line.lstrip().startswith("wrote:")]
                _print_hash("\n".join(summary).encode("utf-8"), f"{name}/{mode}/summary.txt")
        for mode in ("exact", "sampled"):
            out = Path(tmp) / "fig9_scan" / mode
            runner.delta_scan(apply_overrides(preset("fig9"), shots_mode=mode), SCAN_DELTAS, out)
            _hash_tree(out, f"fig9_scan/{mode}")
        for name in PRESET_NAMES:
            if preset(name).mode == "coupled":
                out = Path(tmp) / f"{name}_scan3"
                runner.delta_scan(apply_overrides(preset(name), shots_mode="exact"),
                                  SHORT_SCAN_DELTAS, out)
                _hash_tree(out, f"{name}_scan3")
    for name in PRESET_NAMES:
        for axis in ("x", "y"):
            text = export_circuit(preset(name), axis, max_ancillas=QASM_MAX_ANCILLAS)
            _print_hash(text.encode("utf-8"), f"{name}/qasm_{axis}.qasm")
    return 0


if __name__ == "__main__":
    sys.exit(main())
