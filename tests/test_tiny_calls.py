"""Smoke test of ``tools/tiny_calls.py``: one repetition of one call each,
against this same checkout, so every case and the second-checkout loader
run.  Nothing is timed against a limit."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLS = [
    "DenseTensor", "compute_strides", "TensorView", "getitem", "size", "view_size",
    "Range", "materialize",
    "relayout", "reshape", "plan_fibers", "walk_positions", "fill_range_3",
    "fill_range_1024", "inner_range_3", "inner_range_1024", "copy", "copy_view",
    "copy_overlap", "fill", "transform_binary", "compare_ranges", "tensors_equal",
    "ContractionSpec", "ttv", "ttm", "ttt",
    "ttt_pairs", "outer_product", "times_vectors", "times_matrices", "transpose",
    "read_flat", "randints_625", "contract_outer", "times_matrices_mid",
]


def test_prints_every_call_with_both_columns_and_the_ratio():
    cmd = [sys.executable, str(ROOT / "tools" / "tiny_calls.py"),
           "--reps", "1", "--number", "1", "--against", str(ROOT)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["call", "this_us", "against_us", "ratio"]
    assert [row.split()[0] for row in rows] == CALLS
    for row in rows:
        this_us, against_us, ratio = map(float, row.split()[1:])
        assert this_us > 0 and against_us > 0 and ratio > 0
