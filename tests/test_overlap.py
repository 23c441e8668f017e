"""Writes whose source shares the destination's buffer.

Every source over the destination's buffer at other positions is read in
full before the first store, so each write kernel gives the copy-first
result, the same at every layout.  The identical cursor still runs in
place, and ``assign`` from a view of the tensor itself reads into a fresh
buffer."""

import itertools
from operator import sub

import pytest

import tensorlib.elementwise as ew
from tensorlib import (
    DenseTensor,
    Range,
    TensorView,
    copy,
    copy_if,
    tensors_equal,
    transform_binary,
    transform_unary,
)

SHAPE = (9, 8)
SETUPS = ("first", "last", "nested")


def keep(x):
    """``copy_if``'s predicate: about two elements in three."""
    return int(x * 16) % 3 != 0


def half(x):
    return x * 0.5 + 1.0


# Each write kernel on the overlapping source ``s``, an operand ``o`` of
# its own buffer and the destination ``d``.
KERNELS = {
    "copy": lambda s, o, d: copy(s, d),
    "copy_if": lambda s, o, d: copy_if(s, d, keep),
    "transform_unary": lambda s, o, d: transform_unary(s, d, half),
    "transform_binary_a": lambda s, o, d: transform_binary(s, o, d, sub),
    "transform_binary_b": lambda s, o, d: transform_binary(o, s, d, sub),
}


def root(setup):
    """The values ``i + j / 16`` over (9, 8): a first-order tensor, a
    last-order tensor, or a view of a view inside a last-order tensor."""
    first = DenseTensor.from_memory(SHAPE, [i + j / 16 for j in range(8) for i in range(9)])
    if setup == "first":
        return first
    if setup == "last":
        t = DenseTensor(SHAPE, layout=(2, 1))
    else:
        window = DenseTensor((13, 12), layout=(2, 1)).view(Range(1, 1, 11), Range(2, 1, 11))
        t = TensorView(window, [Range(1, 1, 9), Range(0, 1, 7)])
    copy(first, t)
    return t


def windows(t, step, shift):
    """A source window of ``t`` at (2, 2) and the destination shifted
    from it by ``shift``, both stepping by ``step``."""
    last = (6, 5) if step == 1 else (6, 6)
    src = TensorView(t, [Range(2, step, n) for n in last])
    dst = TensorView(t, [Range(2 + d, step, n + d) for n, d in zip(last, shift)])
    return src, dst


def other(extents):
    n = extents[0] * extents[1]
    return DenseTensor.from_memory(extents, [k / 8 for k in range(n)])


def logical(t):
    """``t``'s elements as hex, in first-order memory order."""
    out = DenseTensor(t.shape)
    copy(t, out)
    return [x.hex() for x in out.data]


def run(kernel, setup, step, shift, first=False):
    """The root after ``kernel`` wrote the shifted window from the source
    window, or, with ``first``, from a copy of the source made first."""
    t = root(setup)
    src, dst = windows(t, step, shift)
    source = src.materialize() if first else src
    KERNELS[kernel](source, other(src.shape), dst)
    return logical(t)


@pytest.mark.parametrize("shift", list(itertools.product((-1, 0, 1), repeat=2)), ids=str)
@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("kernel", KERNELS)
def test_shifted_windows_give_the_copy_first_result(kernel, step, shift):
    results = [run(kernel, setup, step, shift) for setup in SETUPS]
    assert results[0] == run(kernel, "first", step, shift, first=True)
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("layout", [(1, 2), (2, 1)])
@pytest.mark.parametrize("kernel", KERNELS)
def test_a_window_written_one_down_and_one_right(kernel, layout):
    # A (6, 5) tensor of 10 * i + j, its (5, 4) corner written onto the
    # window one index further along both dimensions.
    t = DenseTensor((6, 5), layout=layout)
    copy(DenseTensor.from_memory((6, 5), [10 * i + j for j in range(5) for i in range(6)]), t)
    src, dst = t.view(Range(0, 1, 4), Range(0, 1, 3)), t.view(Range(1, 1, 5), Range(1, 1, 4))
    want = dst.materialize()
    KERNELS[kernel](src.materialize(), other((5, 4)), want)
    KERNELS[kernel](src, other((5, 4)), dst)
    assert tensors_equal(dst, want)


def test_the_identical_cursor_runs_in_place(monkeypatch):
    made, given = [], []
    fibers, sources = ew._fibers, ew._sources

    def spy_fibers(*args):
        made.append(fibers(*args))
        return made[-1]

    def spy_sources(*args):
        given.append(sources(*args))
        return given[-1]

    t = root("last")
    same, shifted = windows(t, 2, (0, 0))[0], windows(t, 2, (1, 0))[1]
    want = [half(x) for x in same.materialize().data]
    monkeypatch.setattr(ew, "_fibers", spy_fibers)
    monkeypatch.setattr(ew, "_sources", spy_sources)
    transform_unary(same, same, half)
    assert len(given) == 1 and given[0] is made[0]
    transform_unary(same, shifted, half)
    assert type(given[1]) is list and given[1] is not made[1]
    monkeypatch.undo()
    assert shifted.materialize().data == [half(x) for x in want]


@pytest.mark.parametrize("layout", [(1, 2), (2, 1)])
def test_assign_from_a_view_of_itself(layout):
    t = DenseTensor(SHAPE, layout=layout)
    copy(root("first"), t)
    view = t.view(Range(1, 2, 7), Range(2, 1, 6))
    want = view.materialize()
    t.assign(view)
    assert tensors_equal(t, want) and t.layout == layout
