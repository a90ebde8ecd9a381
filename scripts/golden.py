#!/usr/bin/env python3
"""Hash the CSVs of every preset, exact and sampled, to prove a change byte-identical.

Usage: PYTHONPATH=src python scripts/golden.py > golden.txt

Each preset runs once per shot mode into a temporary directory that is
removed afterwards. One line per CSV, in a fixed order:

    <sha256>  <preset>/<mode>/<file>.csv

Run it before and after a change and diff the two outputs.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from qmemristor import runner
from qmemristor.config import apply_overrides
from qmemristor.presets import PRESET_NAMES, preset


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESET_NAMES:
            for mode in ("exact", "sampled"):
                out = Path(tmp) / name / mode
                runner.run(apply_overrides(preset(name), shots_mode=mode), out)
                for csv in sorted(out.glob("*.csv")):
                    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
                    print(f"{digest}  {name}/{mode}/{csv.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
