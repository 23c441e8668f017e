"""Smoke test of ``tools/verify_phases.py``: one repetition of one trial
per kind, against this same checkout, so every family and the
second-checkout loader run, and checks of the clock it gives a
``_Comparator``: the same verdicts and counterexamples as without it.
Nothing is timed against a limit."""

import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tensorlib import contraction, verify
from tensorlib.verify import FAMILIES, RunConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import verify_phases  # noqa: E402

CLOCKED = verify_phases.comparator(verify)


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
    clocked.seconds = dict.fromkeys(verify_phases.PHASES, 0.0)
    assert clocked.run({"op": "sum"}, 6, sum, ([1, 2, 3],)) is None
    assert clocked.run({"op": "sum"}, 7, sum, ([1, 2, 3],)) == "bad"
    assert calls == [{"op": "sum"}] * 2
    assert clocked.seconds["kernel"] > 0 and clocked.seconds["judge"] > 0


def verdicts(name, kind, seconds=None):
    """Five trials of ``name``: judged by the library's ``_Comparator``, or
    with ``seconds`` given by the tool's clocked one, which adds to it."""
    cfg = RunConfig(seed=42, scalar_kind=kind)
    rng = random.Random(f"42:{name}:{kind}")
    if seconds is None:
        cmp = verify._Comparator(kind)
    else:
        cmp = CLOCKED(kind)
        cmp.seconds = seconds
    check = dict(FAMILIES)[name]
    return [check(rng, cfg, cmp) for _ in range(5)]


@pytest.mark.parametrize("name", ["copy", "quantify", "ttm", "times_vectors"])
def test_the_clock_keeps_the_verdicts_and_times_every_phase(name):
    seconds = dict.fromkeys(verify_phases.PHASES, 0.0)
    for kind in ("int64", "float64"):
        assert verdicts(name, kind, seconds) == verdicts(name, kind)
    assert seconds["kernel"] > 0 and seconds["judge"] > 0 and seconds["oracle"] == 0


def test_a_raising_kernel_fails_as_without_the_clock(monkeypatch):
    def broken(a, b, mode):
        raise RuntimeError("ttv broke")

    monkeypatch.setattr(contraction, "ttv", broken)
    seconds = dict.fromkeys(verify_phases.PHASES, 0.0)
    clocked, plain = verdicts("ttv", "int64", seconds), verdicts("ttv", "int64")
    assert clocked == plain and all(bad["error"] == "RuntimeError: ttv broke" for bad in plain)
    assert plain[0]["where"].startswith("test_verify_phases.py:")
    assert seconds["kernel"] > 0 and CLOCKED.seconds is None
