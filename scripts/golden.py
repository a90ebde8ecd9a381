#!/usr/bin/env python3
"""Hash every output file of every preset, and of scans, to prove a change byte-identical.

Usage: PYTHONPATH=src python scripts/golden.py [--check] [--dump DIR]

Each preset runs once per shot mode; fig9 runs a five-delta ``delta_scan``
in each shot mode, and every coupled preset a three-delta exact scan, so
the batched scan path is hashed for every gate kind. Each preset run also
hashes its ``runner.summary_text`` without the ``wrote:`` line (which holds
the temporary path), so the per-period pinch distances and form factors and
the entanglement event times, which no CSV holds, are covered too.
Everything runs in a temporary directory that is removed afterwards, unless
``--dump DIR`` is given: then every hashed file (CSV, SVG, summary.txt and
QASM) is kept under DIR at its label's relative path, so two dumps can be
compared field by field. DIR must be empty or absent. The OpenQASM export
of every preset is hashed too, for both measurement axes. One line per CSV,
SVG, summary or export, in a fixed order:

    <sha256>  <preset>/<mode>/<file>
    <sha256>  <preset>/<mode>/summary.txt
    <sha256>  fig9_scan/<mode>/<delta dir>/<file>
    <sha256>  fig9_scan/<mode>/scan_summary.csv
    <sha256>  <coupled preset>_scan3/<delta dir>/<file>
    <sha256>  <coupled preset>_scan3/scan_summary.csv
    <sha256>  <preset>/qasm_<axis>.qasm

Without arguments the lines go to stdout. ``--check`` compares them with
the committed ``scripts/golden.txt`` instead, prints the lines that differ
as a unified diff and exits 1 on any difference, 0 otherwise. A change that
leaves every output byte-identical passes it unchanged; one that moves
outputs on purpose regenerates the file with
``PYTHONPATH=src python scripts/golden.py > scripts/golden.txt``.
"""

import argparse
import difflib
import hashlib
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

from qmemristor import runner
from qmemristor.config import apply_overrides
from qmemristor.presets import PRESET_NAMES, preset
from qmemristor.qasm import export_circuit

SCAN_DELTAS = (0.1, 0.2, 0.3, 0.4, 0.5)
SHORT_SCAN_DELTAS = (0.1, 0.55, 1.0)
# the coupled presets need 20 periods x 60 steps x 2 memristors
QASM_MAX_ANCILLAS = 2400
GOLDEN = Path(__file__).with_name("golden.txt")


def _hash_line(data: bytes, label: str, dump: Path | None = None) -> str:
    """The hash line of ``data``; with ``dump``, ``data`` is also written to dump/label."""
    if dump is not None:
        path = dump / label
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return f"{hashlib.sha256(data).hexdigest()}  {label}"


def _hash_tree(root: Path, label: str):
    files = sorted(p for p in root.rglob("*") if p.suffix in (".csv", ".svg"))
    for path in files:
        yield _hash_line(path.read_bytes(), f"{label}/{path.relative_to(root).as_posix()}")


def golden_lines(dump: Path | None = None):
    """Yield the hash lines in their fixed order, each as soon as it is known.

    The runs write under ``dump`` when it is given, and every other hashed
    file is written there too; otherwise they write to a temporary directory.
    """
    with tempfile.TemporaryDirectory() if dump is None else nullcontext(dump) as tmp:
        for name in PRESET_NAMES:
            for mode in ("exact", "sampled"):
                out = Path(tmp) / name / mode
                result = runner.run(apply_overrides(preset(name), shots_mode=mode), out)
                yield from _hash_tree(out, f"{name}/{mode}")
                summary = [line for line in runner.summary_text(result).splitlines()
                           if not line.lstrip().startswith("wrote:")]
                yield _hash_line("\n".join(summary).encode("utf-8"), f"{name}/{mode}/summary.txt",
                                 dump)
        for mode in ("exact", "sampled"):
            out = Path(tmp) / "fig9_scan" / mode
            runner.delta_scan(apply_overrides(preset("fig9"), shots_mode=mode), SCAN_DELTAS, out)
            yield from _hash_tree(out, f"fig9_scan/{mode}")
        for name in PRESET_NAMES:
            if preset(name).mode == "coupled":
                out = Path(tmp) / f"{name}_scan3"
                runner.delta_scan(apply_overrides(preset(name), shots_mode="exact"),
                                  SHORT_SCAN_DELTAS, out)
                yield from _hash_tree(out, f"{name}_scan3")
    for name in PRESET_NAMES:
        for axis in ("x", "y"):
            text = export_circuit(preset(name), axis, max_ancillas=QASM_MAX_ANCILLAS)
            yield _hash_line(text.encode("utf-8"), f"{name}/qasm_{axis}.qasm", dump)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"diff against {GOLDEN.name} and exit 1 on any difference")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="keep every hashed file under DIR (empty or absent)")
    args = parser.parse_args(argv)
    if args.dump is not None and args.dump.exists() and (
            not args.dump.is_dir() or any(args.dump.iterdir())):
        parser.error(f"--dump {args.dump} is not an empty directory")
    if not args.check:
        for line in golden_lines(args.dump):
            print(line, flush=True)
        return 0
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = list(golden_lines(args.dump))
    diff = list(difflib.unified_diff(expected, got, GOLDEN.name, "this run", n=0,
                                     lineterm=""))
    if diff:
        print("\n".join(diff))
        print(f"golden check: outputs differ from {GOLDEN.name} (- expected, + this run)")
        return 1
    print(f"golden check: all {len(got)} lines match {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
