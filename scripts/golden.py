#!/usr/bin/env python3
"""Hash every output file of every preset, and of one scan, to prove a change byte-identical.

Usage: PYTHONPATH=src python scripts/golden.py > golden.txt

Each preset runs once per shot mode, and fig9 runs one five-delta
``delta_scan``, into a temporary directory that is removed afterwards. One
line per CSV or SVG, in a fixed order:

    <sha256>  <preset>/<mode>/<file>
    <sha256>  fig9_scan/<delta dir>/<file>
    <sha256>  fig9_scan/scan_summary.csv

Run it before and after a change and diff the two outputs.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from qmemristor import runner
from qmemristor.config import apply_overrides
from qmemristor.presets import PRESET_NAMES, preset

SCAN_DELTAS = (0.1, 0.2, 0.3, 0.4, 0.5)


def _hash_tree(root: Path, label: str) -> None:
    files = sorted(p for p in root.rglob("*") if p.suffix in (".csv", ".svg"))
    for path in files:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {label}/{path.relative_to(root).as_posix()}", flush=True)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESET_NAMES:
            for mode in ("exact", "sampled"):
                out = Path(tmp) / name / mode
                runner.run(apply_overrides(preset(name), shots_mode=mode), out)
                _hash_tree(out, f"{name}/{mode}")
        out = Path(tmp) / "fig9_scan"
        runner.delta_scan(preset("fig9"), SCAN_DELTAS, out)
        _hash_tree(out, "fig9_scan")
    return 0


if __name__ == "__main__":
    sys.exit(main())
