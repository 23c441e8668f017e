"""Public contracts that no other test runs: iterator clones and
ordering, the cursor's length check, ``TensorMeta`` hashing and the
MATLAB form of booleans."""

import pytest

from tensorlib import DenseTensor, MultiIterator, StrideIterator, TensorMeta
from tensorlib.matlab_io import format_value


def test_stride_iterator_clone_is_an_independent_equal_copy():
    data = list(range(10))
    it = StrideIterator(data, 2, 3)
    twin = it.clone()
    assert twin == it and twin is not it and twin.data is data
    twin.advance()
    assert (it.pos, twin.pos) == (2, 5)
    assert twin != it


def test_stride_iterator_ordering_compares_positions():
    data = [0] * 8
    lo, hi = StrideIterator(data, 1, 2), StrideIterator(data, 4, 2)
    assert hi >= lo and hi >= hi.clone() and not lo >= hi
    assert lo <= hi and lo < hi and hi > lo


def test_multi_iterator_clone_is_an_independent_equal_copy():
    t = DenseTensor((3, 4), layout=(2, 1))
    it = t.miter().move_to(5)
    twin = it.clone()
    assert twin == it and twin is not it
    assert (twin.data, twin.strides, twin.extents) == (it.data, it.strides, it.extents)
    twin.move_to(7)
    assert (it.pos, twin.pos) == (5, 7)


def test_multi_iterator_rejects_strides_and_extents_of_different_length():
    with pytest.raises(ValueError, match="strides and extents must have equal length"):
        MultiIterator([0] * 6, 0, (1, 2), (6,))


def test_equal_metas_hash_equal_and_work_as_dict_keys():
    a = TensorMeta((2, 3), offsets=(1, -1), layout=(2, 1))
    b = TensorMeta([2, 3], offsets=[1, -1], layout=[2, 1])
    assert a == b and a is not b
    assert hash(a) == hash(b)
    table = {a: "first"}
    table[b] = "second"
    assert table == {a: "second"}
    assert TensorMeta((2, 3)) not in table
    assert len({a, b, TensorMeta((2, 3)), TensorMeta((2, 3), layout=(2, 1))}) == 3


@pytest.mark.parametrize("value, text", [(True, "1"), (False, "0")])
def test_format_value_writes_booleans_as_numbers(value, text):
    assert format_value(value) == text
