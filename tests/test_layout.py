import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from tensorlib import (
    DenseTensor,
    TensorMeta,
    compute_strides,
    first_order_layout,
    inverse_memory_index,
    last_order_layout,
    memory_index,
    volume,
    zero_indices,
)
from tensorlib.layout import MAX_INDEX, validate_layout, validate_shape

from conftest import all_layouts, all_shapes

shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


@st.composite
def shape_and_layout(draw):
    shape = draw(shapes)
    perm = list(range(1, len(shape) + 1))
    rnd = draw(st.randoms(use_true_random=False))
    rnd.shuffle(perm)
    return shape, tuple(perm)


class TestComputeStrides:
    def test_reference_first_order(self):
        assert compute_strides((4, 2, 3), (1, 2, 3)) == (1, 4, 8)

    def test_reference_last_order(self):
        # By the stride rule w_{pi_1}=1, w_{pi_r}=prod_{q<r} n_{pi_q}:
        # w_3=1, w_2=n_3=3, w_1=n_3*n_2=6.
        assert compute_strides((4, 2, 3), (3, 2, 1)) == (6, 3, 1)

    def test_single_dimension(self):
        assert compute_strides((5,), (1,)) == (1,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_strides((2, 3), (1, 2, 3))

    @given(shape_and_layout())
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_precedence_order(self, sl):
        shape, layout = sl
        w = compute_strides(shape, layout)
        ranked = [w[q - 1] for q in layout]
        assert ranked[0] == 1
        assert all(a <= b for a, b in zip(ranked, ranked[1:]))

    @given(shapes)
    @settings(max_examples=100, deadline=None)
    def test_first_and_last_order_closed_forms(self, shape):
        p = len(shape)
        first = compute_strides(shape, first_order_layout(p))
        expect = [1]
        for n in shape[:-1]:
            expect.append(expect[-1] * n)
        assert first == tuple(expect)
        last = compute_strides(shape, last_order_layout(p))
        expect = [1]
        for n in reversed(shape[1:]):
            expect.append(expect[-1] * n)
        assert last == tuple(reversed(expect))


class TestCanonicalLayouts:
    def test_first_order(self):
        assert first_order_layout(3) == (1, 2, 3)
        assert first_order_layout(1) == (1,)
        assert first_order_layout(4) == (1, 2, 3, 4)

    def test_last_order(self):
        assert last_order_layout(3) == (3, 2, 1)
        assert last_order_layout(1) == (1,)
        assert last_order_layout(2) == (2, 1)

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            first_order_layout(0)
        with pytest.raises(ValueError):
            last_order_layout(0)

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            validate_layout((1, 1, 2), 3)
        with pytest.raises(ValueError):
            validate_layout((0, 1, 2), 3)
        with pytest.raises(ValueError):
            validate_layout((2, 3, 4), 3)


class TestVolume:
    def test_values(self):
        assert volume((4, 2, 3)) == 24
        assert volume((1,)) == 1
        assert volume((3, 4, 2, 6)) == 144

    def test_overflow_is_construction_error(self):
        with pytest.raises(ValueError):
            validate_shape((2**40, 2**40))
        assert validate_shape((2**40, 2**23 - 1))  # still within 2**63-1

    def test_max_index_bound(self):
        with pytest.raises(ValueError):
            volume((MAX_INDEX, 2))


class TestMemoryIndex:
    def test_first_element(self):
        assert memory_index((1, 4, 8), (0, 0, 0), (0, 0, 0)) == 0

    def test_hand_evaluated(self):
        # 3*1 + 1*4 + 2*8
        assert memory_index((1, 4, 8), (3, 1, 2), (0, 0, 0)) == 23

    def test_index_equal_to_offsets(self):
        assert memory_index((6, 2, 1), (1, -1, 0), (1, -1, 0)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            memory_index((1, 4), (0, 0, 0), (0, 0, 0))


class TestInverseMemoryIndex:
    def test_origin(self):
        assert inverse_memory_index(TensorMeta((4, 2, 3)), 0) == (0, 0, 0)

    def test_round_trip_value(self):
        assert inverse_memory_index(TensorMeta((4, 2, 3)), 23) == (3, 1, 2)

    def test_last_order(self):
        meta = TensorMeta((4, 2, 3), layout=(3, 2, 1))
        assert inverse_memory_index(meta, 6) == (1, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            inverse_memory_index(TensorMeta((2, 2)), 4)


class TestBijectivity:
    def test_exhaustive_small_orders(self):
        for p in (1, 2, 3):
            for shape in all_shapes(p, 3):
                for layout in all_layouts(p):
                    meta = TensorMeta(shape, layout=layout)
                    seen = {
                        memory_index(meta.strides, i, (0,) * p)
                        for i in zero_indices(shape)
                    }
                    assert seen == set(range(volume(shape)))
                    for j in range(volume(shape)):
                        i = inverse_memory_index(meta, j)
                        assert memory_index(meta.strides, i, (0,) * p) == j

    def test_larger_volume(self):
        rng = random.Random(5)
        meta = TensorMeta((7, 9, 8, 2), layout=(3, 1, 4, 2))
        assert meta.size <= 10**4
        for _ in range(300):
            j = rng.randrange(meta.size)
            i = inverse_memory_index(meta, j)
            assert memory_index(meta.strides, i, (0, 0, 0, 0)) == j

    @given(shape_and_layout())
    @settings(max_examples=100, deadline=None)
    def test_offset_translation_invariance(self, sl):
        shape, layout = sl
        p = len(shape)
        w = compute_strides(shape, layout)
        offsets = tuple((-1) ** r * r for r in range(p))
        for i in zero_indices(shape):
            biased = tuple(a + b for a, b in zip(i, offsets))
            assert memory_index(w, biased, offsets) == memory_index(
                w, i, (0,) * p
            )


class TestTensorMeta:
    def test_strides_follow_layout(self):
        meta = TensorMeta((4, 2, 3), layout=(3, 2, 1))
        assert meta.strides == compute_strides((4, 2, 3), (3, 2, 1))

    def test_defaults(self):
        meta = TensorMeta((4, 2, 3))
        assert meta.layout == (1, 2, 3)
        assert meta.offsets == (0, 0, 0)
        assert meta.strides == (1, 4, 8)

    def test_immutability(self):
        meta = TensorMeta((2, 2))
        with pytest.raises(AttributeError):
            meta.shape = (3, 3)

    @given(shape_and_layout(), shape_and_layout())
    def test_size_is_the_volume(self, first, second):
        (shape, layout), (new_shape, new_layout) = first, second
        meta = TensorMeta(shape, layout=layout)
        assert meta.size == volume(shape)
        reshaped = meta.with_shape(new_shape)
        assert reshaped.size == volume(new_shape)
        relaid = reshaped.with_layout(new_layout)
        assert relaid.size == volume(new_shape)

    @pytest.mark.parametrize(
        "args, kw, message",
        [
            ((), {}, "shape must have at least one dimension"),
            ((2, 0), {}, "extents must be positive, got (2, 0)"),
            ((2, -3), {}, "extents must be positive, got (2, -3)"),
            ((2, 3), {"layout": (1,)}, "layout (1,) does not match order 2"),
            ((2, 3), {"offsets": (0, 0, 0)}, "offsets (0, 0, 0) do not match order 2"),
        ],
        ids=["empty-shape", "zero-extent", "negative-extent", "layout-length", "offsets-length"],
    )
    def test_construction_check_message(self, args, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TensorMeta(args, **kw)

    def test_with_shape_resets_layout_on_order_change(self):
        meta = TensorMeta((4, 2, 3), offsets=(1, -1, 0), layout=(3, 2, 1))
        same = meta.with_shape((2, 4, 3))
        assert same.layout == (3, 2, 1) and same.offsets == (1, -1, 0)
        other = meta.with_shape((24,))
        assert other.layout == (1,) and other.offsets == (0,)


class TestIntegerIndices:
    """Shapes, layouts and offsets take integers only: nothing truncates."""

    def test_float_extent_rejected(self):
        with pytest.raises(ValueError, match="shape must be integers"):
            DenseTensor((2.7, 3))

    def test_string_extent_rejected(self):
        with pytest.raises(ValueError, match="shape must be integers"):
            DenseTensor(("3", 2))

    def test_bool_extent_rejected(self):
        with pytest.raises(ValueError, match="shape must be integers"):
            DenseTensor((True, 3))

    def test_float_offsets_rejected(self):
        with pytest.raises(ValueError, match="offsets must be integers"):
            DenseTensor((2, 3), offsets=(0.9, -1.2))

    def test_float_layout_rejected(self):
        with pytest.raises(ValueError, match="layout must be integers"):
            TensorMeta((2, 3), layout=(2.0, 1))

    def test_numpy_integers_accepted(self):
        meta = TensorMeta(
            (np.int64(2), np.int32(3)),
            offsets=(np.int8(-1), np.int64(0)),
            layout=(np.int16(2), np.int64(1)),
        )
        assert meta == TensorMeta((2, 3), offsets=(-1, 0), layout=(2, 1))
        for field in (meta.shape, meta.offsets, meta.layout):
            assert all(type(v) is int for v in field)
