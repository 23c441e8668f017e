import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorlib import (
    DenseTensor,
    Range,
    TensorView,
    classify_view,
    copy,
    tensors_equal,
    zero_indices,
)

from conftest import all_layouts, rand_dense, read_box


def iota_tensor(shape, **kw):
    t = DenseTensor(shape, **kw)
    for j in range(t.size):
        t.set_memory(j, j)
    return t


class TestRange:
    def test_forms(self):
        assert (Range(2).first, Range(2).step, Range(2).last) == (2, 1, 2)
        assert (Range(1, 3).first, Range(1, 3).step, Range(1, 3).last) == (1, 1, 3)
        r = Range(1, 2, 5)
        assert (r.first, r.step, r.last) == (1, 2, 5)
        assert Range().is_full

    def test_validation(self):
        with pytest.raises(ValueError):
            Range(3, 1)
        with pytest.raises(ValueError):
            Range(0, 0, 3)
        with pytest.raises(ValueError):
            Range(1, 2, 3, 4)

    def test_float_indices_rejected(self):
        with pytest.raises(ValueError, match="Range indices must be integers"):
            Range(0.5, 1.9, 2.5)

    def test_bool_index_rejected(self):
        with pytest.raises(ValueError, match="Range indices must be integers"):
            Range(True, 2)

    def test_numpy_integers_accepted(self):
        r = Range(np.int64(1), np.int32(2), np.int8(5))
        assert (r.first, r.step, r.last) == (1, 2, 5)
        assert all(type(v) is int for v in (r.first, r.step, r.last))


class TestMakeView:
    def test_numpy_integer_specifier(self):
        a = iota_tensor((4, 2, 3))
        v = a.view(np.int64(1), None, np.int32(2))
        assert v.ranges == a.view(1, None, 2).ranges
        assert all(type(i) is int for r in v.ranges for i in r)

    def test_reference_selection(self):
        a = iota_tensor((4, 2, 3))
        v = a.view(Range(1, 2, 3), Range(0, 1), 2)
        assert v.shape == (2, 2, 1)
        assert v.order == 3

    def test_full_selection(self):
        a = iota_tensor((4, 2, 3))
        v = a.view(None, None, None)
        assert v.shape == a.shape
        assert v.gamma == 0

    def test_gamma(self):
        a = iota_tensor((4, 2, 3))
        v = a.view(Range(1, 2, 3), Range(0, 1, 1), Range(2, 1, 2))
        assert v.gamma == 1 * 1 + 4 * 0 + 8 * 2

    def test_arity_check(self):
        a = iota_tensor((4, 2, 3))
        with pytest.raises(ValueError):
            a.view(Range(0, 1), Range(0, 1))

    def test_bounds_rejected(self):
        a = DenseTensor((4, 2, 3), offsets=(1, 0, 0))
        with pytest.raises(IndexError):
            a.view(Range(0, 2), None, None)  # below offset
        with pytest.raises(IndexError):
            a.view(None, Range(0, 2), None)  # beyond extent

    def test_step_may_exceed_span(self):
        a = iota_tensor((5,))
        v = a.view(Range(1, 7, 3))
        assert v.shape == (1,)
        assert v[0] == a[1]

    def test_sequence_form(self):
        a = iota_tensor((4, 2, 3))
        v = a.view([Range(1, 2, 3), Range(0, 1), 2])
        assert v.shape == (2, 2, 1)

    def test_explicit_full_range_equals_none(self):
        a = iota_tensor((4, 2, 3), offsets=(1, -2, 0), layout=(2, 3, 1))
        v = a.view(Range(), Range(-1), Range())
        w = a.view(None, -1, None)
        assert (v.ranges, v.shape, v.strides, v.gamma) == (w.ranges, w.shape, w.strides, w.gamma)

    @pytest.mark.parametrize("spec", ["1", 1.5, (1, 2)], ids=["str", "float", "tuple"])
    def test_uninterpretable_specifier(self, spec):
        a = iota_tensor((4, 2, 3))
        with pytest.raises(ValueError, match=f"cannot interpret {re.escape(repr(spec))} as a range"):
            a.view(None, spec, None)


class TestViewAccess:
    def test_reference_element_mapping(self):
        a = iota_tensor((4, 2, 3))
        v = a.view(Range(1, 2, 3), Range(0, 1), 2)
        assert v[0, 0, 0] == a[1, 0, 2]
        assert v[1, 0, 0] == a[3, 0, 2]
        assert v[0, 1, 0] == a[1, 1, 2]
        assert v[1, 1, 0] == a[3, 1, 2]

    def test_full_view_is_identity(self):
        a = iota_tensor((3, 2, 2), offsets=(1, -1, 0), layout=(2, 3, 1))
        v = a.view(None, None, None)
        for i in zero_indices(a.shape):
            idx = tuple(x + o for x, o in zip(i, a.offsets))
            assert v[idx] == a[idx]

    def test_write_through_superdiagonal_slice(self):
        a = DenseTensor((4, 4, 4))
        v = a.view(None, None, 1)
        for i in range(4):
            v[i, i, 0] = 1
        assert all(a[i, i, 1] == 1 for i in range(4))
        assert sum(a.data) == 4

    def test_bounds(self):
        a = iota_tensor((4, 2, 3))
        v = a.view(Range(1, 2, 3), Range(0, 1), 2)
        with pytest.raises(IndexError):
            v[2, 0, 0]
        with pytest.raises(IndexError):
            v[0, 0, 1]

    def test_addressing_consistency_exhaustive(self):
        # view element (i') reads target element f + t*(i' - o), for all
        # layouts of small targets.
        for layout in all_layouts(3):
            a = iota_tensor((4, 3, 3), offsets=(0, -1, 1), layout=layout)
            v = a.view(Range(1, 2, 3), Range(0, 1, 1), Range(1, 2, 3))
            firsts = [r[0] for r in v.ranges]
            steps = [r[1] for r in v.ranges]
            o = a.offsets
            for i in zero_indices(v.shape):
                via_view = v[tuple(x + b for x, b in zip(i, o))]
                target_idx = tuple(
                    f + t * k for f, t, k in zip(firsts, steps, i)
                )
                assert via_view == a[target_idx]


class TestLiveTarget:
    """A view reads its target's current layout; once its ranges no longer
    fit the target, access raises instead of reading a wrong element."""

    def test_relayout_keeps_multi_indices(self):
        a = iota_tensor((2, 3))
        v = a.view(None, Range(1, 1))
        assert v[0, 0] == 2
        a.relayout((2, 1))
        assert v[0, 0] == a[0, 1] == 2

    def test_same_shape_assign_keeps_multi_indices(self):
        a = iota_tensor((2, 3), layout=(2, 1))
        v = a.view(Range(1, 1), Range(0, 2, 2))
        src = iota_tensor((2, 3), offsets=(5, 5))
        a.assign(src)
        assert [v[0, 0], v[0, 1]] == [a[1, 0], a[1, 2]] == [1, 5]

    @pytest.mark.parametrize("new_shape", [(3, 2), (6,)])
    def test_reshape_out_of_ranges_raises(self, new_shape):
        a = iota_tensor((2, 3))
        v = a.view(None, Range(2, 2))
        a.reshape(new_shape)
        with pytest.raises(IndexError, match="dimension 2"):
            v[1, 0]
        with pytest.raises(IndexError, match="dimension 2"):
            v.miter()

    def test_assign_of_smaller_shape_raises(self):
        a = iota_tensor((2, 3))
        v = a.view(None, Range(1, 2))
        a.assign(DenseTensor((1, 1)))
        with pytest.raises(IndexError, match="dimension 1"):
            v[0, 0]

    def test_copy_after_relayout_matches_earlier_read(self):
        a = rand_dense(random.Random(3), (4, 3, 5))
        o = a.offsets
        v = a.view(Range(o[0] + 1, 2, o[0] + 3), None, Range(o[2], 3, o[2] + 3))
        before = read_box(v)
        a.relayout(a.layout[::-1])
        out = DenseTensor(v.shape)
        copy(v, out)
        assert read_box(out) == before


class TestViewOfView:
    """A view whose target is a view addresses the root's buffer from the
    target view's corner, and follows the root like any view."""

    ROOT_RANGES = ((3, 2, 7), (-1, 1, 1), (2, 1, 4))  # first, step, last
    INNER_RANGES = ((3, 1, 4), (-2, 2, 0), (1, 2, 3))

    @classmethod
    def nested(cls):
        a = iota_tensor((6, 4, 5), offsets=(2, -2, 1), layout=(2, 3, 1))
        v = TensorView(a, [Range(*r) for r in cls.ROOT_RANGES])
        w = TensorView(v, [Range(*r) for r in cls.INNER_RANGES])
        return a, v, w

    @classmethod
    def root_index(cls, a, iw):
        """The root multi-index behind ``w[iw]``, by explicit arithmetic."""
        o = a.offsets
        iv = [f + t * (i - o_) for (f, t, _), i, o_ in zip(cls.INNER_RANGES, iw, o)]
        return tuple(f + t * (i - o_) for (f, t, _), i, o_ in zip(cls.ROOT_RANGES, iv, o))

    def expected(self, a, w):
        o = a.offsets
        return [
            a[self.root_index(a, tuple(i + o_ for i, o_ in zip(z, o)))]
            for z in zero_indices(w.shape)
        ]

    def test_reads_its_targets_elements(self):
        a, v, w = self.nested()
        assert v.shape == (3, 3, 3) and w.shape == (2, 2, 2)
        o = a.offsets
        for z in zero_indices(w.shape):
            iw = tuple(i + o_ for i, o_ in zip(z, o))
            assert w[iw] == a[self.root_index(a, iw)]
        assert w[o] == v[3, -2, 1] == a[5, -1, 2]

    def test_materialize(self):
        a, _, w = self.nested()
        assert w.materialize().data == self.expected(a, w)

    def test_root_relayout(self):
        a, _, w = self.nested()
        before = self.expected(a, w)
        a.relayout((3, 1, 2))
        assert w.materialize().data == self.expected(a, w) == before

    def test_root_reshape_raises(self):
        a, _, w = self.nested()
        a.reshape((120,))
        with pytest.raises(IndexError, match="dimension 2"):
            w[2, -2, 1]
        with pytest.raises(IndexError, match="dimension 2"):
            w.materialize()


class TestClassify:
    def test_slice(self):
        a = DenseTensor((4, 2, 3))
        assert classify_view(a.view(None, None, 1)) == "slice"

    def test_fiber(self):
        a = DenseTensor((4, 2, 3))
        assert classify_view(a.view(None, 0, 2)) == "fiber"

    def test_general(self):
        a = DenseTensor((4, 2, 3))
        v = a.view(Range(1, 2, 3), Range(0, 1), 2)
        assert classify_view(v) == "general"


class TestMaterialize:
    def test_full_view(self):
        a = rand_dense(random.Random(0), (3, 2, 2))
        m = a.view(None, None, None).materialize()
        assert tensors_equal(a, m)
        assert m.layout == (1, 2, 3)
        assert m.offsets == (0, 0, 0)

    def test_reference_selection(self):
        a = iota_tensor((4, 2, 3))
        m = a.view(Range(1, 2, 3), Range(0, 1), 2).materialize()
        assert m.shape == (2, 2, 1)
        assert m.data == [a[1, 0, 2], a[3, 0, 2], a[1, 1, 2], a[3, 1, 2]]

    def test_fiber_matches_stride_iteration(self):
        a = iota_tensor((4, 3, 2), layout=(2, 1, 3))
        v = a.view(None, 1, 0)
        fiber = v.materialize()
        it = v.dim_begin(1)
        end = v.dim_end(1)
        seq = []
        while it != end:
            seq.append(it.value)
            it.advance()
        assert fiber.data == seq


class TestExtentFormula:
    @given(
        st.integers(1, 8),
        st.integers(0, 7),
        st.integers(1, 4),
        st.integers(0, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_against_enumeration(self, extent, f, t, span):
        l = min(f + span, extent - 1)
        if f > l:
            return
        a = DenseTensor((extent,))
        v = a.view(Range(f, t, l))
        count = len(range(f, l + 1, t))
        assert v.shape[0] == count
