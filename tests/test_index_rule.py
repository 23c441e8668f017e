"""The one index rule: every index, mode, order or count argument is an
integer (ints and NumPy integers; no floats, no bools) inside its range,
and fails the same way otherwise.  The range check lives in one helper,
``layout._index``, with two message forms: ``{name} {value} out of range
{lo}..{hi}`` and ``{name} must be >= {lo}, got {value}``."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from tensorlib import (
    ContractionSpec,
    DenseTensor,
    MultiIterator,
    Range,
    StrideIterator,
    copy,
    fill,
    first_order_layout,
    frobenius_norm,
    hopm,
    inverse_memory_index,
    last_order_layout,
    memory_index,
    reduce_ttm_to_ttt,
    reduce_ttv_to_ttt,
    times_matrices,
    times_vectors,
    ttv,
    walk_positions,
)
from tensorlib import elementwise, iterators
from tensorlib.cli import EXIT_USAGE, main
from tensorlib.iterators import fill_range, inner_product_range, plan_fibers
from tensorlib.verify import RunConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "tensorlib"


def three_d():
    t = DenseTensor((3, 4, 2))
    t.data = list(range(24))
    return t


def view():
    return three_d().view(Range(0, 2, 2), None, Range(1))


# Each entry takes one index argument ``x``; ``good`` is a valid value,
# ``out`` one outside the range, ``error`` what ``out`` raises.
ENTRIES = {
    "inverse_memory_index": ("memory index", lambda x: inverse_memory_index(
        three_d().meta, x), 5, 24, ValueError),
    "getitem": ("index", lambda x: three_d()[x, 2, 0], 1, 3, IndexError),
    "getitem_one": ("index", lambda x: DenseTensor((3,))[x], 1, 3, IndexError),
    "view_getitem": ("index", lambda x: view()[x, 1, 0], 1, 2, IndexError),
    "setitem": ("index", lambda x: three_d().__setitem__((1, x, 0), 7), 2, 4, IndexError),
    "get_memory": ("memory index", lambda x: three_d().get_memory(x), 1, 24, IndexError),
    "set_memory": ("memory index", lambda x: three_d().set_memory(x, 7), 1, -1, IndexError),
    "reduce_ttv_to_ttt_p": ("order", lambda x: reduce_ttv_to_ttt(x, 1), 2, 0, ValueError),
    "reduce_ttv_to_ttt_m": ("mode", lambda x: reduce_ttv_to_ttt(3, x), 2, 4, ValueError),
    "reduce_ttm_to_ttt_m": ("mode", lambda x: reduce_ttm_to_ttt(3, x), 1, 0, ValueError),
    "first_order_layout": ("order", first_order_layout, 2, 0, ValueError),
    "last_order_layout": ("order", last_order_layout, 2, -1, ValueError),
    "begin": ("depth", lambda x: three_d().miter().begin(x), 1, 3, ValueError),
    "end": ("depth", lambda x: three_d().miter().end(x), 1, -1, ValueError),
    "dim_begin": ("dimension", lambda x: three_d().dim_begin(x), 1, 4, ValueError),
    "dim_end": ("dimension", lambda x: view().dim_end(x), 3, 0, ValueError),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("bad", [1.0, 2.5, True, False])
def test_float_or_bool_raises_value_error_naming_the_argument(entry, bad):
    name, call, _, _, _ = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be integers"):
        call(bad)


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_integer_is_accepted_like_an_int(entry):
    _, call, good, _, _ = ENTRIES[entry]
    for kind in (np.int64, np.int8):
        got, want = call(kind(good)), call(good)
        assert got == want
        if isinstance(want, tuple):
            assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("entry", ENTRIES)
def test_out_of_range_keeps_its_exception_type(entry):
    _, call, _, out, error = ENTRIES[entry]
    with pytest.raises(error) as raised:
        call(out)
    assert type(raised.value) is error


def test_bool_no_longer_addresses_index_one():
    t = three_d()
    before = list(t.data)
    for call in (lambda: t[True, 2, 0], lambda: t.get_memory(True),
                 lambda: t.set_memory(True, -1), lambda: t.__setitem__((True, 2, 0), -1)):
        with pytest.raises(ValueError):
            call()
    assert t.data == before


def test_inverse_memory_index_returns_ints():
    assert inverse_memory_index(three_d().meta, np.int64(5)) == (2, 1, 0)
    assert [type(i) for i in inverse_memory_index(three_d().meta, np.int64(5))] == [int] * 3


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: first_order_layout(0), ValueError, "order must be >= 1, got 0"),
        (lambda: last_order_layout(0), ValueError, "order must be >= 1, got 0"),
        (lambda: reduce_ttv_to_ttt(0, 1), ValueError, "order must be >= 1, got 0"),
        (lambda: ContractionSpec(-1, (1,), (1,)), ValueError, "q must be >= 0, got -1"),
        (lambda: RunConfig(max_order=9), ValueError, "max_order 9 out of range 2..6"),
        (lambda: RunConfig(max_order=1), ValueError, "max_order 1 out of range 2..6"),
        (lambda: RunConfig(trials=0), ValueError, "trials must be >= 1, got 0"),
        (lambda: RunConfig(max_extent=0), ValueError, "max_extent must be >= 1, got 0"),
        (lambda: hopm(three_d(), max_sweeps=0), ValueError,
         "max_sweeps must be >= 1, got 0"),
        (lambda: three_d().miter().begin(3), ValueError, "depth 3 out of range 0..2"),
        (lambda: inverse_memory_index(DenseTensor((3, 4)).meta, 12), ValueError,
         "memory index 12 out of range 0..11"),
        (lambda: DenseTensor((3, 4)).get_memory(12), IndexError,
         "memory index 12 out of range 0..11"),
        (lambda: DenseTensor((3, 4)).set_memory(-1, 0), IndexError,
         "memory index -1 out of range 0..11"),
        (lambda: three_d().dim_begin(4), ValueError, "dimension 4 out of range 1..3"),
        (lambda: ttv(three_d(), DenseTensor((4,)), 0), ValueError,
         "mode 0 out of range 1..3"),
        (lambda: times_vectors(three_d(), [], skip=4), ValueError,
         "skip mode 4 out of range 1..3"),
        (lambda: Range(0, 0, 3), ValueError, "step must be >= 1, got 0"),
    ],
)
def test_pinned_messages(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_cli_max_order_out_of_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["verify", "--max-order", "9", "--trials", "1"])
    assert raised.value.code == EXIT_USAGE
    assert "max_order 9 out of range 2..6" in capsys.readouterr().err


def test_skip_keeps_its_integer_message():
    t = three_d()
    with pytest.raises(ValueError, match="^skip must be integers"):
        times_vectors(t, [DenseTensor((3,)), DenseTensor((2,))], skip=2.0)


def raised_messages(path):
    """Every string or f-string literal passed to a ``raise`` of a call in
    ``path``, as source text."""
    tree = ast.parse(path.read_text())
    return [
        ast.unparse(arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        for arg in node.exc.args
        if isinstance(arg, (ast.Constant, ast.JoinedStr))
    ]


def test_range_messages_are_raised_by_the_helper_only():
    """Outside ``_index``, only the whole-list mode check of ``_chain``
    still says ``out of range``, and no check says ``must be >=`` but
    ``hopm``'s float ``tol``."""
    found = {
        (path.name, text)
        for path in SRC.glob("*.py")
        for text in raised_messages(path)
        if "out of range" in text or "must be >=" in text
    }
    assert found == {
        ("layout.py", "f'{name} must be >= {lo}, got {value}'"),
        ("layout.py", "f'{name} {value} out of range {lo}..{hi}'"),
        ("contraction.py", "f'{what}: modes {modes} out of range 1..{p}'"),
        ("hopm.py", "f'tol must be >= 0, got {tol!r}'"),
    }


def index_calls(path):
    """``{qualified function name: calls of _index}`` in ``path``."""
    counts = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                k = sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_index"
                        for n in ast.walk(child))
                if k:
                    counts[prefix + child.name] = k

    visit(ast.parse(path.read_text()), "")
    return counts


def test_every_range_check_calls_the_helper():
    found = {
        (path.stem, name, k)
        for path in SRC.glob("*.py")
        for name, k in index_calls(path).items()
    }
    assert found == {
        ("contraction", "_mode", 1),
        ("contraction", "ContractionSpec.__post_init__", 1),
        ("contraction", "_free_then", 2),
        ("contraction", "times_vectors", 1),
        ("hopm", "hopm", 1),
        ("iterators", "MultiIterator.begin", 1),
        ("layout", "first_order_layout", 1),
        ("layout", "last_order_layout", 1),
        ("layout", "inverse_memory_index", 1),
        ("tensor", "_Strided._dim_cursor", 1),
        ("tensor", "DenseTensor.get_memory", 1),
        ("tensor", "DenseTensor.set_memory", 1),
        ("verify", "RunConfig.__post_init__", 3),
        ("views", "Range.__init__", 1),
    }


def test_tensor_meta_builds_its_default_layout_without_the_helper():
    # Its order comes from a shape that is already checked.
    tree = ast.parse((SRC / "layout.py").read_text())
    (meta,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TensorMeta"]
    names = {n.id for n in ast.walk(meta) if isinstance(n, ast.Name)}
    assert not names & {"_index", "first_order_layout", "last_order_layout"}


# Raw cursors take the rule where they enter a kernel (``elementwise._mit``),
# not when they are built: ``(pos, strides, extents)`` with one bad field.
RAW = {
    "pos_bool": (True, (1,), (3,)),
    "pos_float": (1.0, (1,), (3,)),
    "stride_bool": (0, (True,), (3,)),
    "stride_float": (0, (2.0,), (3,)),
    "extent_float": (0, (1,), (3.0,)),
    "extent_bool": (0, (1, 3), (3, True)),
}
KERNELS = {
    "copy_from": lambda c: copy(c, DenseTensor(tuple(map(int, c.extents)))),
    "fill": lambda c: fill(c, -1),
    "frobenius_norm": frobenius_norm,
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("fields", RAW.values(), ids=list(RAW))
def test_raw_cursor_fields_must_be_integers(kernel, fields):
    data = list(range(6))
    cursor = MultiIterator(data, *fields)
    with pytest.raises(ValueError, match="^cursor position, strides and extents must be integers"):
        KERNELS[kernel](cursor)
    assert data == list(range(6))


def test_raw_cursor_of_numpy_integers_is_accepted():
    got, want = DenseTensor((3,)), DenseTensor((3,))
    copy(MultiIterator(list(range(6)), np.int64(1), (np.int64(2),), (np.int8(3),)), got)
    copy(MultiIterator(list(range(6)), 1, (2,), (3,)), want)
    assert got.data == want.data == [1, 3, 5]


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "2"])
def test_move_to_a_raw_position_takes_the_rule(bad):
    it = three_d().miter()
    with pytest.raises(ValueError, match="^position must be integers"):
        it.move_to(bad)
    assert it.pos == 0
    assert it.move_to(np.int64(2)).pos == 2 and type(it.pos) is int


@pytest.mark.parametrize("bad", [1.5, 1.0, True])
def test_advance_takes_the_rule(bad):
    st = StrideIterator(list(range(12)), 0, 2)
    with pytest.raises(ValueError, match="^steps must be integers"):
        st.advance(bad)
    assert st.pos == 0
    assert st.advance(np.int64(3)).pos == 6 and st.value == 6


@pytest.mark.parametrize("bad, value", [
    ("first_pos", True), ("first_pos", 1.0), ("first_stride", True), ("first_stride", 1.0),
    ("last_pos", True), ("last_pos", 3.0), ("other_pos", True), ("other_pos", 2.0),
])
def test_range_algorithms_take_the_rule(bad, value):
    data = list(range(6))
    fields = {"first_pos": 0, "first_stride": 1, "last_pos": 3, "other_pos": 0, bad: value}
    first = StrideIterator(data, fields["first_pos"], fields["first_stride"])
    last = StrideIterator(data, fields["last_pos"], 1)
    other = StrideIterator(data, fields["other_pos"], 1)
    message = "^range positions and strides must be integers"
    with pytest.raises(ValueError, match=message):
        inner_product_range(first, last, other, 0)
    if bad != "other_pos":
        with pytest.raises(ValueError, match=message):
            fill_range(first, last, -1)
    assert data == list(range(6))


def test_cursors_built_by_the_kernels_skip_the_rule(monkeypatch):
    """Neither ``MultiIterator.__init__`` nor the planner applies the rule:
    a contraction chain of tensors applies it nowhere, and a raw operand
    once, at the door."""
    calls = []
    rule = iterators._as_indices

    def spy(values, name):
        calls.append(name)
        return rule(values, name)

    for module in (iterators, elementwise):
        monkeypatch.setattr(module, "_as_indices", spy, raising=False)
    matrices = [DenseTensor((2, n), fill_value=1.0) for n in (3, 4, 2)]
    times_matrices(three_d(), matrices, (1, 2, 3))
    ttv(three_d(), DenseTensor((4,), fill_value=1.0), 2)
    assert calls == []
    ttv(three_d().miter(), DenseTensor((4,), fill_value=1.0), 2)
    assert calls == ["cursor position, strides and extents"]


# The planner's public forms read raw cursors too, and take the same rule
# as the kernels' door (``iterators._check_raw``).
READERS = {
    "plan_fibers": lambda c: plan_fibers((c,)),
    "walk_positions": walk_positions,
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("fields", RAW.values(), ids=list(RAW))
def test_raw_cursor_readers_take_the_rule(reader, fields):
    cursor = MultiIterator(list(range(6)), *fields)
    with pytest.raises(ValueError, match="^cursor position, strides and extents must be integers"):
        READERS[reader](cursor)


def test_raw_cursor_readers_accept_numpy_integers():
    cursor = MultiIterator(list(range(6)), np.int64(1), (np.int64(2),), (np.int8(3),))
    assert walk_positions(cursor) == [1, 3, 5]
    assert plan_fibers((cursor,)).starts == ([1],)


@pytest.mark.parametrize("bad", [(1.5, 0), (True, 0), (1, 2.0), ("1", 0)])
def test_memory_index_takes_the_rule(bad):
    with pytest.raises(ValueError, match="^index must be integers"):
        memory_index((1, 3), bad, (0, 0))
    assert memory_index((1, 3), (np.int64(1), np.int8(2)), (0, 0)) == 7
