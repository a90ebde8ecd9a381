"""``scripts/golden.py --dump``: every printed hash is the hash of its kept file."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"


@pytest.fixture
def golden(monkeypatch):
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "PRESET_NAMES", ("fig4",))
    return module


def test_dump_keeps_every_hashed_file(golden, tmp_path, capsys):
    dump = tmp_path / "dump"
    assert golden.main(["--dump", str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = []
    for line in lines:
        digest, label = line.split("  ", 1)
        assert hashlib.sha256((dump / label).read_bytes()).hexdigest() == digest, label
        labels.append(label)
    kept = sorted(p.relative_to(dump).as_posix() for p in dump.rglob("*") if p.is_file())
    assert kept == sorted(labels)
    for label in ("fig4/exact/trace.csv", "fig4/sampled/iv.svg", "fig4/exact/summary.txt",
                  "fig4/qasm_y.qasm", "fig9_scan/exact/scan_summary.csv",
                  "fig9_scan/sampled/delta_0.5000/concurrence.svg"):
        assert label in labels


def test_dump_rejects_a_directory_that_is_not_empty(golden, tmp_path, capsys):
    (tmp_path / "stale.csv").write_text("0\n")
    with pytest.raises(SystemExit) as exc:
        golden.main(["--dump", str(tmp_path)])
    assert exc.value.code == 2
    assert "not an empty directory" in capsys.readouterr().err
