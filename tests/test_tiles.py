"""Where the tile reader ``iterators._tiles`` runs: the far-strided reads of
the contraction engine and the equality flag enter it, and the 32³ HOPM
solves and the default-size verify runs, whose strides stay below its
threshold, never do."""

import importlib
import random
import sys

import pytest

from tensorlib import (
    ContractionSpec,
    DenseTensor,
    Range,
    RunConfig,
    compare_ranges,
    copy,
    hopm,
    residual,
    run_verification,
    tensors_equal,
    times_vectors,
    ttm,
    ttt,
    ttv,
)

from conftest import FAR_NAMES, far_strided

iterators = importlib.import_module("tensorlib.iterators")


def readers():
    """Every tensorlib module that binds the tile reader."""
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("tensorlib.") and getattr(m, "_tiles", None) is iterators._tiles]


@pytest.fixture
def entries(monkeypatch):
    """Patch the tile reader wherever it is bound to record each entry and
    then raise; yield the list of entries."""
    calls = []

    def spy(*args):
        calls.append(args[1:])
        raise AssertionError("tile reader entered")

    mods = readers()
    assert {m.__name__ for m in mods} >= {"tensorlib.contraction", "tensorlib.elementwise"}
    for m in mods:
        monkeypatch.setattr(m, "_tiles", spy)
    return calls


def hopm_inputs(seed=5, n=32):
    """32³ inputs as the hopm benchmark draws them, rank one plus noise:
    first-order, last-order, and a view stepping by 2 through dimension 1
    of a first-order parent."""
    rng = random.Random(seed)
    x, y, z = ([rng.uniform(0.5, 1.5) for _ in range(n)] for _ in range(3))
    values = [xi * yj * zk + rng.gauss(0, 0.01) for zk in z for yj in y for xi in x]
    first = DenseTensor.from_memory((n, n, n), values)
    last = DenseTensor((n, n, n), layout=(3, 2, 1))
    parent = DenseTensor.from_memory(
        (2 * n, n, n), [rng.uniform(-1, 1) for _ in range(2 * n ** 3)])
    view = parent.view(Range(0, 2, 2 * n - 2), None, None)
    for t in (last, view):
        copy(first, t)
    return first, last, view


def test_hopm_and_verify_never_enter_the_tile_reader(entries):
    for a in hopm_inputs():
        state = hopm(a, tol=1e-10)
        assert state.converged and residual(a, state) >= 0
    for kind in ("float64", "int64"):
        assert run_verification(RunConfig(trials=20, scalar_kind=kind)).ok
    assert entries == []


def far_calls(name):
    """``(label, call)`` over the far-strided operand ``name``."""
    a, _ = far_strided(random.Random(name), name, "float64")
    na = a.shape
    far = 3 if name.startswith("first") else 1
    vec = [DenseTensor.from_memory((n,), [1.0] * n) for n in na]
    other = DenseTensor(na, layout=(3, 2, 1) if far == 3 else (1, 2, 3))
    copy(a, other)
    spec = ContractionSpec(1, (1, 2, 3) if far == 3 else (2, 3, 1), (2, 1))
    modes = (2, 3) if far == 3 else (1, 2)
    calls = {f"ttv.m{m}": lambda m=m: ttv(a, vec[m - 1], m) for m in (1, 2, 3)}
    calls.update({
        "ttm": lambda: ttm(a, DenseTensor((2, na[far - 1])), far),
        "ttt": lambda: ttt(a, DenseTensor((na[far - 1], 2)), spec),
        "times_vectors": lambda: times_vectors(a, [vec[m - 1] for m in modes], modes=modes),
        "tensors_equal": lambda: tensors_equal(a, other),
        "tensors_equal.swapped": lambda: tensors_equal(other, a),
        "compare_ranges": lambda: compare_ranges(a, other),
        "compare_ranges.swapped": lambda: compare_ranges(other, a),
    })
    return calls


# The far fiber is streamed by ttv, ttm and ttt at the far mode (and by a
# chain's first step, the higher mode); equality reads in iteration order,
# dimension 1 fastest, so only a far dimension 1 (last order) is tiled.
TILED = {
    "first": {"ttv.m3", "ttm", "ttt", "times_vectors"},
    "last": {"ttv.m1", "ttm", "ttt", "tensors_equal", "tensors_equal.swapped",
             "compare_ranges", "compare_ranges.swapped"},
}


@pytest.mark.parametrize("name", FAR_NAMES)
def test_far_strided_reads_enter_the_tile_reader(entries, name):
    entered = set()
    for label, call in far_calls(name).items():
        before = len(entries)
        try:
            call()
        except AssertionError:
            pass
        if len(entries) > before:
            entered.add(label)
    assert entered == TILED[name.split("_")[0]]
