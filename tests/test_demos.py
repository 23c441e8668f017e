"""Every script in ``demos/`` runs to completion against the source tree,
and the scripts print the facts of the worked examples."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Lines each worked example prints: strides under both canonical layouts,
# a stepped view's shape and corner, one fiber's memory indices, and the
# result shapes of a ttv and a two-pair ttt.
FACTS = {
    "01_strides_and_layouts": [
        "layout (1, 2, 3) -> strides (1, 4, 8)",
        "layout (3, 2, 1) -> strides (6, 3, 1)",
    ],
    "02_views_and_slices": ["view shape: (2, 2, 1)", "corner memory offset: 17"],
    "03_iterators": ["fiber positions along dimension 2: [0, 4, 8]"],
    "05_contractions": [
        "ttv mode 2: (3, 4, 2) x (4,) -> (3, 2)",
        "ttt contracting two dimension pairs: (3, 4, 2) x (4, 3, 5) -> (2, 5)",
    ],
}


@functools.lru_cache(maxsize=None)
def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )


def test_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("name", sorted(FACTS))
def test_demo_prints_its_facts(name):
    lines = run_demo(ROOT / "demos" / f"{name}.py").stdout.splitlines()
    for fact in FACTS[name]:
        assert fact in lines
