"""The failure contract for operands: every operand parameter of every
public name rejects a non-operand with the door's one ``TypeError``, an
argument read before the door (``residual``'s state, a sequence of
vectors or matrices, ``hopm``'s start vectors, a raw cursor's buffer)
raises a ``TypeError`` naming it, an order that is no integer or lies
outside 1..``sys.maxsize`` raises a ``ValueError`` naming it, and no
``AttributeError`` or ``OverflowError`` escapes from inside the library.

Each row is one operand parameter, crossed with the same five
non-operands.  The names that take no operand are listed with a reason,
and the completeness test holds every public callable to one of the two
lists, so the table grows with the API.  Further rows hold the
non-operand parameters that take one type only, and the orders of
``reduce_ttv_to_ttt`` and ``reduce_ttm_to_ttt``, to the same rules."""

import sys
from operator import add

import pytest

import tensorlib
from tensorlib import contraction, matlab_io
from tensorlib import (
    ContractionSpec,
    DenseTensor,
    MatlabScript,
    MultiIterator,
    TensorMeta,
    TensorView,
    accumulate,
    all_of,
    any_of,
    classify_view,
    compare_ranges,
    copy,
    copy_if,
    count_matching,
    emit_tensor,
    extremum_element,
    fill,
    first_order_layout,
    find_first,
    for_each,
    frobenius_norm,
    generate,
    hopm,
    inner_product_flat,
    inverse_memory_index,
    inner_product_tensors,
    iota,
    last_order_layout,
    none_of,
    outer_product,
    quantify,
    rank_one_compose,
    reduce_ttm_to_ttt,
    reduce_ttv_to_ttt,
    residual,
    run_verification,
    tensors_equal,
    times_matrices,
    times_vectors,
    transform_binary,
    transform_unary,
    transpose,
    ttm,
    ttt,
    ttv,
    walk_positions,
    write_script,
)

NON_OPERANDS = [2.0, None, "t", [1.0, 2.0], object()]
DOOR = "operand must be a tensor, view or MultiIterator, got "


def cube():
    return DenseTensor.from_memory((3, 4, 2), [1.0 + k for k in range(24)])


def vec(n):
    return DenseTensor.from_memory((n,), [1.0] * n)


def mat(rows, cols):
    return DenseTensor.from_memory((rows, cols), [1.0] * (rows * cols))


# (name, operand parameter, the call with ``x`` in that parameter's place)
DOOR_ROWS = [
    ("accumulate", "src", lambda x: accumulate(x)),
    ("all_of", "src", lambda x: all_of(x, bool)),
    ("any_of", "src", lambda x: any_of(x, bool)),
    ("compare_ranges", "a", lambda x: compare_ranges(x, cube())),
    ("compare_ranges", "b", lambda x: compare_ranges(cube(), x)),
    ("copy", "src", lambda x: copy(x, cube())),
    ("copy", "dst", lambda x: copy(cube(), x)),
    ("copy_if", "src", lambda x: copy_if(x, cube(), bool)),
    ("copy_if", "dst", lambda x: copy_if(cube(), x, bool)),
    ("count_matching", "src", lambda x: count_matching(x, 1.0)),
    ("emit_tensor", "t", lambda x: emit_tensor(x, "A")),
    ("extremum_element", "src", lambda x: extremum_element(x)),
    ("fill", "dst", lambda x: fill(x, 0.0)),
    ("find_first", "src", lambda x: find_first(x, 1.0)),
    ("for_each", "a", lambda x: for_each(x, abs)),
    ("frobenius_norm", "a", lambda x: frobenius_norm(x)),
    ("generate", "dst", lambda x: generate(x, float)),
    ("hopm", "a", lambda x: hopm(x)),
    ("hopm", "u0", lambda x: hopm(cube(), u0=[vec(3), x, vec(2)])),
    ("inner_product_flat", "a", lambda x: inner_product_flat(x, cube())),
    ("inner_product_flat", "b", lambda x: inner_product_flat(cube(), x)),
    ("inner_product_tensors", "a", lambda x: inner_product_tensors(x, cube())),
    ("inner_product_tensors", "b", lambda x: inner_product_tensors(cube(), x)),
    ("iota", "dst", lambda x: iota(x)),
    ("none_of", "src", lambda x: none_of(x, bool)),
    ("outer_product", "a", lambda x: outer_product(x, vec(2))),
    ("outer_product", "b", lambda x: outer_product(vec(2), x)),
    ("quantify", "src", lambda x: quantify(x, bool)),
    ("rank_one_compose", "vectors", lambda x: rank_one_compose(1.0, [vec(3), x])),
    ("residual", "a", lambda x: residual(x, hopm(cube(), max_sweeps=1))),
    ("tensors_equal", "a", lambda x: tensors_equal(x, cube())),
    ("tensors_equal", "b", lambda x: tensors_equal(cube(), x)),
    ("times_matrices", "a", lambda x: times_matrices(x, [mat(2, 3)], (1,))),
    ("times_matrices", "matrices", lambda x: times_matrices(cube(), [mat(2, 3), x], (1, 2))),
    ("times_vectors", "a", lambda x: times_vectors(x, [vec(3)], (1,))),
    ("times_vectors", "vectors", lambda x: times_vectors(cube(), [vec(3), x], (1, 2))),
    ("transform_binary", "a", lambda x: transform_binary(x, cube(), cube(), add)),
    ("transform_binary", "b", lambda x: transform_binary(cube(), x, cube(), add)),
    ("transform_binary", "dst", lambda x: transform_binary(cube(), cube(), x, add)),
    ("transform_unary", "src", lambda x: transform_unary(x, cube(), abs)),
    ("transform_unary", "dst", lambda x: transform_unary(cube(), x, abs)),
    ("transpose", "a", lambda x: transpose(x, (2, 1, 3))),
    ("ttm", "a", lambda x: ttm(x, mat(2, 3), 1)),
    ("ttm", "bmat", lambda x: ttm(cube(), x, 1)),
    ("ttt", "a", lambda x: ttt(x, cube(), ContractionSpec(1, (1, 2, 3), (1, 2, 3)))),
    ("ttt", "b", lambda x: ttt(cube(), x, ContractionSpec(1, (1, 2, 3), (1, 2, 3)))),
    ("ttv", "a", lambda x: ttv(x, vec(3), 1)),
    ("ttv", "b", lambda x: ttv(cube(), x, 1)),
    ("DenseTensor.assign", "src", lambda x: DenseTensor((2,)).assign(x)),
    ("MatlabScript.add_tensor", "t", lambda x: MatlabScript().add_tensor(x, "A")),
]

# Parameters that take one kind of object only, each with its own TypeError.
OWN_ROWS = [
    ("classify_view", "v", lambda x: classify_view(x),
     "classify_view needs a TensorView, got "),
    ("walk_positions", "it", lambda x: walk_positions(x),
     "walk_positions needs a MultiIterator, got "),
    ("TensorView", "target", lambda x: TensorView(x, [None]),
     "view target must be a tensor or view, got "),
    ("residual", "state", lambda x: residual(cube(), x),
     "state must be a HopmState, got "),
]

# Sequence arguments (operand lists, a raw cursor's buffer), read before
# anything else of them, crossed with values that have no length and no
# items: each raises a TypeError naming the argument (a string or list has
# both and meets the door's TypeError instead).
UNSIZED = [2.0, None, 5, object()]
SIZED_ROWS = [
    ("rank_one_compose", "vectors", lambda x: rank_one_compose(1.0, x),
     "vectors must be a sequence of vectors, got "),
    ("times_vectors", "vectors", lambda x: times_vectors(cube(), x, (1,)),
     "vectors must be a sequence of vectors, got "),
    ("times_matrices", "matrices", lambda x: times_matrices(cube(), x, (1,)),
     "matrices must be a sequence of matrices, got "),
    ("fill", "dst.data", lambda x: fill(MultiIterator(x, 0, (1,), (3,)), 1.0),
     "cursor buffer must be a sequence, got "),
    ("fill", "empty dst.data", lambda x: fill(MultiIterator(x, 0, (1,), (0,)), 1.0),
     "cursor buffer must be a sequence, got "),
]

# The order of the layout builders, crossed with bad values: each cell is
# the ValueError's message, which names the order.  An order above
# sys.maxsize is one that no tuple can hold.
ORDER_ROWS = [("first_order_layout", first_order_layout),
              ("last_order_layout", last_order_layout)]
BAD_ORDERS = [
    (10**30, f"order must be <= {sys.maxsize}, the most a tuple holds, got {10**30}$"),
    (sys.maxsize + 1,
     f"order must be <= {sys.maxsize}, the most a tuple holds, got {sys.maxsize + 1}$"),
    (0, "order must be >= 1, got 0$"),
    (-1, "order must be >= 1, got -1$"),
    (2.0, r"order must be integers, got \(2\.0,\)$"),
    (True, r"order must be integers, got \(True,\)$"),
    ("1", r"order must be integers, got \('1',\)$"),
    (None, r"order must be integers, got \(None,\)$"),
    (float("nan"), r"order must be integers, got \(nan,\)$"),
    ((1,), r"order must be integers, got \(\(1,\),\)$"),
]

# Non-operand parameters that take one type only, crossed with the same
# non-operands: each raises a TypeError naming the type it takes.
TYPED_ROWS = [
    ("inverse_memory_index", "meta", lambda x: inverse_memory_index(x, 0),
     "inverse_memory_index needs a TensorMeta, got "),
    ("run_verification", "config", lambda x: run_verification(x),
     "run_verification needs a RunConfig, got "),
]

NO_OPERAND = {
    "CompareResult": "a result record",
    "ContractionSpec": "mode tuples only",
    "DegenerateInputError": "an exception type",
    "HopmState": "a result record; residual reads its vectors through the door",
    "MultiIterator": "builds a cursor from a buffer; the door checks it where it is used",
    "Range": "indices only",
    "RunConfig": "options only",
    "StrideIterator": "builds a one-dimensional cursor from a buffer",
    "TensorMeta": "shape, offsets and layout only",
    "compute_strides": "shape and layout only",
    "first_order_layout": "an order only",
    "inverse_memory_index": "a memory index and index tuples only",
    "last_order_layout": "an order only",
    "memory_index": "index tuples only",
    "reduce_ttm_to_ttt": "an order and a mode only",
    "reduce_ttv_to_ttt": "an order and a mode only",
    "run_verification": "a RunConfig only",
    "volume": "a shape only",
    "write_script": "a MatlabScript and a path; its tensors entered through add_tensor",
    "zero_indices": "a shape only",
}


def row_id(row):
    return f"{row[0]}.{row[1]}"


@pytest.mark.parametrize("bad", NON_OPERANDS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("row", DOOR_ROWS, ids=row_id)
def test_a_non_operand_raises_the_doors_type_error(row, bad):
    with pytest.raises(TypeError, match=DOOR + type(bad).__name__ + "$"):
        row[2](bad)


@pytest.mark.parametrize("bad", NON_OPERANDS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("row", OWN_ROWS, ids=row_id)
def test_a_single_kind_parameter_raises_its_own_type_error(row, bad):
    with pytest.raises(TypeError, match=row[3] + type(bad).__name__ + "$"):
        row[2](bad)


@pytest.mark.parametrize("bad", UNSIZED, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("row", SIZED_ROWS, ids=row_id)
def test_an_argument_without_a_length_raises_a_type_error_naming_it(row, bad):
    with pytest.raises(TypeError, match=row[3] + type(bad).__name__ + "$"):
        row[2](bad)


# None is u0's default, the normalized all-ones start.
@pytest.mark.parametrize("bad", [x for x in UNSIZED if x is not None],
                         ids=lambda v: type(v).__name__)
def test_hopm_u0_without_a_length_raises_a_type_error_naming_it(bad):
    with pytest.raises(TypeError, match="u0 must be a sequence of vectors, got "
                       + type(bad).__name__ + "$"):
        hopm(cube(), u0=bad)


@pytest.mark.parametrize("bad, message", BAD_ORDERS, ids=[repr(b)[:8] for b, _ in BAD_ORDERS])
@pytest.mark.parametrize("row", ORDER_ROWS, ids=lambda row: row[0])
def test_a_bad_order_raises_a_value_error_naming_it(row, bad, message):
    with pytest.raises(ValueError, match=message):
        row[1](bad)


@pytest.mark.parametrize("bad", NON_OPERANDS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("row", TYPED_ROWS, ids=row_id)
def test_a_single_type_parameter_raises_a_type_error_naming_it(row, bad):
    with pytest.raises(TypeError, match=row[3] + type(bad).__name__ + "$"):
        row[2](bad)


# Parameters that take a string, crossed with the non-operands that are
# none: each raises a TypeError naming the parameter.  ``open`` would
# reject such a path without naming it, and ``text()`` a command only
# after it was added.
NON_STRINGS = [x for x in NON_OPERANDS if not isinstance(x, str)]
STRING_ROWS = [
    ("write_script", "path", lambda x: write_script(MatlabScript(), x),
     "path must name a file, got "),
    ("MatlabScript.add_command", "text", lambda x: MatlabScript().add_command(x),
     "text must be a str, got "),
]


@pytest.mark.parametrize("bad", NON_STRINGS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("row", STRING_ROWS, ids=row_id)
def test_a_string_parameter_raises_a_type_error_naming_it(row, bad):
    with pytest.raises(TypeError, match=row[3] + type(bad).__name__ + "$"):
        row[2](bad)


def refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} before the argument was checked")
    return refused


# The orders of the reductions take the layout builders' rule.  ``tuple``
# is patched out of the contraction module, so that an order checked too
# late fails here instead of building a tuple of 10**30 entries.
@pytest.mark.parametrize("bad, message", BAD_ORDERS, ids=[repr(b)[:8] for b, _ in BAD_ORDERS])
@pytest.mark.parametrize("reduce", [reduce_ttv_to_ttt, reduce_ttm_to_ttt],
                         ids=lambda f: f.__name__)
def test_a_reduction_checks_its_order_before_building_anything(monkeypatch, reduce, bad,
                                                               message):
    monkeypatch.setattr(contraction, "tuple", refuse("a tuple was built"), raising=False)
    with pytest.raises(ValueError, match=message):
        reduce(bad, 1)


# An int path would be a file descriptor: ``open`` is patched out, so that
# a missing check touches no descriptor (True is standard output).
@pytest.mark.parametrize("path", [True, False, 1, 0, 10**6], ids=repr)
def test_write_script_refuses_a_descriptor_path(monkeypatch, path):
    monkeypatch.setattr(matlab_io, "open", refuse("a file was opened"), raising=False)
    with pytest.raises(TypeError, match=f"^path must name a file, got {type(path).__name__}$"):
        write_script(MatlabScript(), path)


def test_classify_view_of_a_tensor_names_tensor_view():
    with pytest.raises(TypeError, match="needs a TensorView, got DenseTensor"):
        classify_view(cube())


@pytest.mark.parametrize("tol", [None, "x", "1e-3", [1e-3], True, object()],
                         ids=lambda v: type(v).__name__)
def test_hopm_tol_takes_only_a_number(tol):
    with pytest.raises(ValueError, match="tol must be >= 0, got "):
        hopm(cube(), tol=tol)


def test_every_public_callable_is_in_one_list():
    rows = {row[0].split(".")[0] for row in DOOR_ROWS + OWN_ROWS}
    public = {name for name in tensorlib.__all__ if callable(getattr(tensorlib, name))}
    assert not rows & NO_OPERAND.keys()
    assert rows | NO_OPERAND.keys() == public


def test_an_attribute_error_inside_an_operands_miter_is_not_masked():
    class Broken:
        meta = TensorMeta((2,))

        def miter(self):
            raise AttributeError("inside miter")

    with pytest.raises(AttributeError, match="inside miter"):
        copy(Broken(), DenseTensor((2,)))
