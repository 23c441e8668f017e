"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def lib():
    return run.load_library()


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_spec()


@pytest.mark.parametrize("sweeps", [1, 2, 5])
def test_traced_hopm_counts_every_call(lib, sweeps):
    # Calls go through the package namespace, which binds hopm, residual
    # and (inside the modules) times_vectors and frobenius_norm by value.
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    pkg = importlib.import_module("tensorlib")
    a = pkg.DenseTensor.from_memory((2, 2, 2), [1.0, 2.0, 0.5, 1.5, 2.5, 1.0, 0.25, 3.0])
    patches.on()
    try:
        state = pkg.hopm(a, max_sweeps=sweeps, tol=0.0)
        pkg.residual(a, state)
    finally:
        patches.off()
    assert state.sweeps == sweeps
    assert tracer.calls["contraction.times_vectors"] == 3 * sweeps
    assert tracer.calls["contraction.frobenius_norm"] == 3 * sweeps + 1
    assert tracer.calls["hopm.hopm"] == tracer.calls["hopm.residual"] == 1
    assert pkg.hopm.__name__ == "hopm" and not hasattr(pkg.hopm, "__wrapped__")


def test_layout_class(lib):
    T = lib.tensor.DenseTensor
    assert tracing.layout_class(T((3, 4, 5))) == "first"
    assert tracing.layout_class(T((3, 4, 5), layout=(3, 2, 1))) == "last"
    assert tracing.layout_class(T((3, 4, 5), layout=(2, 1, 3))) == "other"
    assert tracing.layout_class(T((6, 4, 5)).view(lib.views.Range(0, 2, 4), None, None)) == "view"
    assert tracing.layout_class(T((3, 4, 5), layout=(3, 2, 1)).miter()) == "last"


def _corrupt_once(module, name, corrupt):
    original = getattr(module, name)
    pending = [True]

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        if pending[0]:
            pending[0] = False
            out = corrupt(out, *args)
        return out

    setattr(module, name, corrupted)


def _fill_wrong(out, dst, value):
    dst[tuple(dst.offsets)] = value + 1
    return out


def _residual_wrong(out, a, state):
    return out + 1.0


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("name", ["oracle", "hopm", "bulk"])
def test_one_corrupted_output_is_one_failure(lib, name, corrupt):
    workload = {
        "oracle": lambda: wl.Oracle(lib, 5),
        "hopm": lambda: wl.Hopm(lib, 5, n=8, inputs=wl.HOPM_INPUTS[:2]),
        "bulk": lambda: wl.Bulk(lib, 5, n=4),
    }[name]()
    if corrupt and name == "hopm":
        _corrupt_once(lib.hopm, "residual", _residual_wrong)
    elif corrupt:
        _corrupt_once(lib.elementwise, "fill", _fill_wrong)
    loop = run.Loop()
    loop.run(workload.ops)
    loop.run(workload.ops)
    assert loop.failed == (1 if corrupt else 0)
    assert loop.attempted == 2 * len(workload.ops)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else tracing.per_layer_spec()
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
