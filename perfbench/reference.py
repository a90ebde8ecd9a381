"""Reference CSVs of the default seed's leading jobs, and the comparison.

The reference files hold, per workload, the trace/metrics CSV text of the
first jobs of the default seed as the program wrote them when the benchmark
was defined. Every run recomputes those jobs and compares each CSV twice: by
SHA-256 of its bytes (a difference is a digest mismatch, which is reported
but is not an error) and field by field with a relative tolerance (a
difference beyond it is an error).
"""

from __future__ import annotations

import hashlib
import json
import lzma
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIELD_RTOL = 1e-9


def path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.xz"


def load(workload: str) -> dict[str, dict[str, str]]:
    """Job index (as text) -> CSV name -> CSV text."""
    with lzma.open(path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save(workload: str, tables: dict[str, dict[str, str]]) -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    with lzma.open(path(workload), "wt", encoding="utf-8", preset=9) as fh:
        json.dump(tables, fh, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare(reference: str, actual: str) -> list[str]:
    """Field-by-field differences beyond FIELD_RTOL.

    A field passes when |a - r| <= FIELD_RTOL * max(|a|, |r|, s), where s is the
    largest magnitude in the reference column, so values that are noise
    around zero compare on the column's scale.
    """
    ref_lines = reference.splitlines()
    act_lines = actual.splitlines()
    if not ref_lines or not act_lines or ref_lines[0] != act_lines[0]:
        return ["header differs"]
    if len(ref_lines) != len(act_lines):
        return [f"{len(act_lines) - 1} rows, reference has {len(ref_lines) - 1}"]
    ref = [[float(x) for x in line.split(",")] for line in ref_lines[1:]]
    act = [[float(x) for x in line.split(",")] for line in act_lines[1:]]
    if any(len(r) != len(a) for r, a in zip(ref, act)):
        return ["field count differs"]
    scale = [max((abs(row[c]) for row in ref), default=0.0) for c in range(len(ref[0]) if ref else 0)]
    problems = []
    for i, (r_row, a_row) in enumerate(zip(ref, act), start=1):
        for c, (r, a) in enumerate(zip(r_row, a_row)):
            if not abs(a - r) <= FIELD_RTOL * max(abs(a), abs(r), scale[c]):
                problems.append(f"row {i} column {c}: {a!r} vs reference {r!r}")
    return problems
