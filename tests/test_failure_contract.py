"""The failure contract for operands: every operand parameter of every
public name rejects a non-operand with the door's one ``TypeError``, and
no ``AttributeError`` escapes from inside the library.

Each row is one operand parameter, crossed with the same five
non-operands.  The names that take no operand are listed with a reason,
and the completeness test holds every public callable to one of the two
lists, so the table grows with the API."""

from operator import add

import pytest

import tensorlib
from tensorlib import (
    ContractionSpec,
    DenseTensor,
    MatlabScript,
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
    find_first,
    for_each,
    frobenius_norm,
    generate,
    hopm,
    inner_product_flat,
    inner_product_tensors,
    iota,
    none_of,
    outer_product,
    quantify,
    rank_one_compose,
    residual,
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
