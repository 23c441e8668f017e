"""Rules the library states once and every entry point shares: the
permutation check, the fresh-output builder, the stride-range cursor and
the integer rule for scalar arguments."""

import re

import numpy as np
import pytest

from tensorlib import (
    ContractionSpec,
    DenseTensor,
    Range,
    TensorView,
    hopm,
    iota,
    tensors_equal,
    times_vectors,
    transpose,
    ttt,
)
from tensorlib.verify import RunConfig, run_verification

SHAPE = (2, 3, 4)


def source():
    """An order-3 tensor with its own layout and offsets, holding 0..23."""
    t = DenseTensor(SHAPE, offsets=(1, -2, 0), layout=(3, 1, 2))
    iota(t)
    return t


# Each entry point takes an order-3 permutation and names it in its errors.
PERMUTATION_ENTRIES = {
    "DenseTensor": ("layout", lambda perm: DenseTensor(SHAPE, layout=perm)),
    "relayout": ("layout", lambda perm: DenseTensor(SHAPE).relayout(perm)),
    "transpose": ("tau", lambda perm: transpose(DenseTensor(SHAPE), perm)),
    "phi": ("phi", lambda perm: ttt(
        DenseTensor(SHAPE), DenseTensor((4,)), ContractionSpec(1, perm, (1,)))),
    "psi": ("psi", lambda perm: ttt(
        DenseTensor((4,)), DenseTensor(SHAPE), ContractionSpec(1, (1,), perm))),
}

BAD_PERMUTATIONS = {
    "repeated": (1, 1, 2),
    "out-of-range": (0, 1, 2),
    "short": (1, 2),
    "float": (1.0, 2, 3),
    "bool": (True, 2, 3),
}


@pytest.mark.parametrize("entry", PERMUTATION_ENTRIES)
@pytest.mark.parametrize("bad", BAD_PERMUTATIONS)
def test_every_permutation_entry_rejects_a_bad_permutation(entry, bad):
    name, call = PERMUTATION_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} "):
        call(BAD_PERMUTATIONS[bad])


@pytest.mark.parametrize("entry", PERMUTATION_ENTRIES)
def test_every_permutation_entry_accepts_numpy_integers(entry):
    _, call = PERMUTATION_ENTRIES[entry]
    call(tuple(np.int64(k) for k in (2, 1, 3)))


def view_of_view(root):
    """Every other element of a window that drops each dimension's first
    index; both views keep the root's offsets."""
    box = list(zip(root.offsets, root.shape))
    window = root.view([Range(o + 1, 1, o + n - 1) for o, n in box])
    return TensorView(window, [Range(o, 2, o + n - 2) for o, n in box])


FRESH_OUTPUTS = {
    "materialize": lambda t: (view_of_view(t).materialize(), view_of_view(t)),
    "transpose": lambda t: (transpose(t, (1, 2, 3)), t),
    "times_vectors": lambda t: (times_vectors(t, [], modes=[]), t),
}


@pytest.mark.parametrize("builder", FRESH_OUTPUTS)
def test_fresh_outputs_are_default_layout_zero_offset_and_own_their_buffer(builder):
    t = source()
    before = list(t.data)
    out, src = FRESH_OUTPUTS[builder](t)
    assert type(out) is DenseTensor
    assert out.layout == tuple(range(1, out.order + 1))
    assert out.offsets == (0,) * out.order
    assert tensors_equal(out, src)
    assert out.data is not t.data
    out.fill(-1)
    assert t.data == before


def walk(it, end):
    values = []
    while it != end:
        values.append(it.value)
        it.advance()
    return values


@pytest.mark.parametrize("layout", [(1, 2, 3), (3, 2, 1), (2, 3, 1)])
def test_dim_ranges_with_at_on_a_view_of_a_view_walk_element_access(layout):
    root = DenseTensor((4, 5, 6), offsets=(0, -3, 1), layout=layout)
    iota(root)
    v = view_of_view(root)
    o, n = v.offsets, v.shape
    boxes = [range(lo, lo + k) for lo, k in zip(o, n)]
    for dim in (1, 2, 3):
        for at in [(i, j, k) for i in boxes[0] for j in boxes[1] for k in boxes[2]]:
            got = walk(v.dim_begin(dim, at), v.dim_end(dim, at))
            want = []
            for i in boxes[dim - 1]:
                key = list(at)
                key[dim - 1] = i
                want.append(v[key])
            assert got == want, (dim, at)
    # Without ``at`` the range starts at the first element.
    assert walk(v.dim_begin(2), v.dim_end(2)) == [v[o[0], j, o[2]] for j in boxes[1]]


@pytest.mark.parametrize("value", [2.5, 3.0, True, "2"])
def test_hopm_max_sweeps_must_be_an_integer(value):
    a = DenseTensor.from_memory((2, 2), [2.0, 1.0, 1.0, 3.0])
    with pytest.raises(ValueError, match=re.escape("max_sweeps must be integers")):
        hopm(a, max_sweeps=value)


def test_hopm_max_sweeps_accepts_a_numpy_integer():
    a = DenseTensor.from_memory((2, 2), [2.0, 1.0, 1.0, 3.0])
    assert hopm(a, max_sweeps=np.int64(2), tol=0.0).sweeps == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("seed", True),
        ("trials", 2.5),
        ("trials", True),
        ("max_order", 3.0),
        ("max_extent", 2.5),
        ("max_extent", False),
    ],
)
def test_run_config_integers_must_be_integers(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be integers")):
        RunConfig(**{field: value})


def test_run_config_normalizes_numpy_integers():
    cfg = RunConfig(
        seed=np.int64(7), trials=np.int32(1), max_order=np.int64(3), max_extent=np.int8(2)
    )
    assert [type(v) for v in (cfg.seed, cfg.trials, cfg.max_order, cfg.max_extent)] == [int] * 4
    plain = RunConfig(seed=7, trials=1, max_order=3, max_extent=2)
    assert run_verification(cfg).to_text() == run_verification(plain).to_text()
