"""Smoke test of ``tools/bulk_cases.py``: one repetition at extent 4,
against this same checkout, so every case of the ``bulk`` workload and the
second-checkout loaders run, a check that ``--only`` times just the
cases it matches and refuses a pattern that matches none, and a check that
both sides read the same element objects.  Nothing is timed against a
limit."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_only_times_the_matching_cases():
    cmd = [sys.executable, str(ROOT / "tools" / "bulk_cases.py"),
           "--n", "4", "--reps", "1", "--against", str(ROOT)]
    proc = subprocess.run(cmd + ["--only", r"^transpose\."],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:-1]
    assert [row.split()[0] for row in rows] == [
        "transpose.first", "transpose.last", "transpose.view"]
    proc = subprocess.run(cmd + ["--only", "no such case"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--only 'no such case' matches no case" in proc.stderr


def test_both_sides_read_the_same_element_objects():
    # Whichever side is built first gets better-placed float objects; the
    # second side's buffers are refilled with the first side's elements.
    spec = importlib.util.spec_from_file_location(
        "bulk_cases", ROOT / "tools" / "bulk_cases.py")
    bulk_cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bulk_cases)
    first, second = bulk_cases.build(((ROOT, "first"), (ROOT, "second")), 4, 0)
    ours, theirs = (bulk_cases.operand_buffers(b) for b in (first, second))
    # a, b, out and equal at three layouts, vec, mat, rhs, assign_dst and
    # the two relayout tensors.
    assert len(ours) == len(theirs) == 18
    for mine, other in zip(ours, theirs):
        assert mine is not other and len(mine) == len(other)
        assert all(x is y for x, y in zip(mine, other))
    # Operands holding different values are refused, not overwritten.
    theirs[0][0] += 1.0
    with pytest.raises(SystemExit, match="different operands"):
        bulk_cases.share_elements(first, second)
