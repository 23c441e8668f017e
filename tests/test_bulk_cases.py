"""Smoke test of ``tools/bulk_cases.py``: one repetition at extent 4,
against this same checkout, so every case of the ``bulk`` workload and the
second-checkout loaders run.  Nothing is timed against a limit."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_every_bulk_case_with_both_columns_and_the_ratio():
    cmd = [sys.executable, str(ROOT / "tools" / "bulk_cases.py"),
           "--n", "4", "--reps", "1", "--against", str(ROOT)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows, last = proc.stdout.splitlines()
    assert header.split() == ["case", "this_ms", "against_ms", "ratio"]
    assert len(rows) == 47
    assert {row.split()[0].rsplit(".", 1)[1] for row in rows} == {"first", "last", "view"}
    assert rows[0].split()[0] == "tensors_equal.first"
    for row in rows:
        this_ms, against_ms, ratio = map(float, row.split()[1:])
        assert this_ms > 0 and against_ms > 0 and ratio > 0
    assert last.split()[:2] == ["geometric", "mean"] and float(last.split()[2]) > 0
