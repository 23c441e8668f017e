"""Smoke test of ``tools/verify_phases.py``: one repetition of one trial
per kind, against this same checkout, so every family and the
second-checkout loader run, and a check of the clock it gives a
``_Comparator`` that has none.  Nothing is timed against a limit."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from tensorlib.verify import FAMILIES

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import verify_phases  # noqa: E402


def test_prints_every_family_and_phase_with_both_columns():
    cmd = [sys.executable, str(ROOT / "tools" / "verify_phases.py"),
           "--reps", "1", "--trials", "1", "--against", str(ROOT)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["family.phase", "this_us", "against_us", "ratio"]
    names = [name for name, _ in FAMILIES] + ["all"]
    assert [row.split()[0] for row in rows] == [
        f"{name}.{phase}" for name in names for phase in ("oracle", "kernel", "judge")]
    for row in rows:
        this_us, against_us, _ = map(float, row.split()[1:])
        assert this_us >= 0 and against_us >= 0


def test_only_picks_families_and_refuses_a_pattern_that_matches_none():
    cmd = [sys.executable, str(ROOT / "tools" / "verify_phases.py"),
           "--reps", "1", "--trials", "1"]
    proc = subprocess.run(cmd + ["--only", "^tt[vm]$"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [row.split()[0] for row in proc.stdout.splitlines()[1:]] == [
        "ttv.oracle", "ttv.kernel", "ttv.judge", "ttm.oracle", "ttm.kernel", "ttm.judge",
        "all.oracle", "all.kernel", "all.judge"]
    proc = subprocess.run(cmd + ["--only", "no such family"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2 and "matches no family" in proc.stderr


def test_a_comparator_without_a_clock_gets_one():
    calls = []

    class Comparator:
        def __init__(self, kind):
            self.kind = kind

        def run(self, context, expected, kernel, args, shape=None, dst=None):
            calls.append(context)
            return None if kernel(*args) == expected else "bad"

    clocked = verify_phases.comparator(SimpleNamespace(_Comparator=Comparator))("int64")
    clocked.timings = dict.fromkeys(verify_phases.PHASES, 0.0)
    assert clocked.run({"op": "sum"}, 6, sum, ([1, 2, 3],)) is None
    assert clocked.run({"op": "sum"}, 7, sum, ([1, 2, 3],)) == "bad"
    assert calls == [{"op": "sum"}] * 2
    assert clocked.timings["kernel"] > 0 and clocked.timings["judge"] > 0
