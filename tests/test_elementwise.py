import random

import pytest

from tensorlib import (
    DenseTensor,
    MultiIterator,
    accumulate,
    all_of,
    any_of,
    compare_ranges,
    copy,
    copy_if,
    count_matching,
    extremum_element,
    fill,
    find_first,
    for_each,
    generate,
    inner_product_flat,
    iota,
    none_of,
    quantify,
    tensors_equal,
    transform_binary,
    transform_unary,
    zero_indices,
)
from tensorlib.iterators import plan_fibers

from conftest import rand_dense, rand_operand, read_box


def iter_order(shape):
    """Iteration order of the suites: dimension 1 fastest."""
    import itertools

    for rev in itertools.product(*[range(n) for n in reversed(shape)]):
        yield rev[::-1]


class TestForEach:
    def test_assign_constant_any_layout(self):
        t = rand_dense(random.Random(0), (3, 2, 4))
        for_each(t, lambda _: 5)
        assert t.data == [5] * t.size

    def test_identity_keeps_values(self):
        t = rand_dense(random.Random(1), (3, 2, 4))
        before = list(t.data)
        for_each(t, lambda x: x)
        assert t.data == before

    def test_application_count_is_volume(self):
        t = rand_dense(random.Random(2), (3, 2, 4))
        calls = [0]

        def tick(x):
            calls[0] += 1
            return x

        for_each(t, tick)
        assert calls[0] == t.size

    def test_depth_zero_kernel_count(self):
        # The order-preserving plan merges the whole default-layout nest
        # into one fiber; under layout (2, 1, 3) no dimension merges, so
        # dimension 1 stays innermost: prod(n_2..n_p) fibers of n_1.
        for layout, fibers, length in (((1, 2, 3), 1, 60), ((2, 1, 3), 12, 5)):
            t = DenseTensor((5, 3, 4), layout=layout)
            plan = plan_fibers((t.miter(),))
            assert (len(plan.starts[0]), plan.length) == (fibers, length)


class TestTransformUnary:
    def test_scaling_between_layouts(self):
        src = rand_dense(random.Random(3), (3, 2, 4))
        dst = DenseTensor((3, 2, 4), layout=(3, 2, 1))
        transform_unary(src, dst, lambda x: 3 * x)
        box = read_box(src)
        assert all(dst[i] == 3 * box[i] for i in zero_indices(src.shape))

    def test_identity_is_copy(self):
        src = rand_dense(random.Random(4), (2, 3))
        dst = DenseTensor((2, 3), layout=(2, 1))
        transform_unary(src, dst, lambda x: x)
        assert tensors_equal(src, dst)

    def test_random_layouts_match_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            src = rand_operand(rng, shape)
            dst = rand_operand(rng, shape)
            transform_unary(src, dst, lambda x: x * x)
            box = read_box(src)
            got = read_box(dst)
            assert all(got[i] == box[i] ** 2 for i in box)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            transform_unary(DenseTensor((2, 3)), DenseTensor((3, 2)), lambda x: x)


class TestTransformBinary:
    def test_additive_identity(self):
        rng = random.Random(6)
        a = rand_dense(rng, (3, 2))
        b = DenseTensor((3, 2), layout=(2, 1))
        dst = DenseTensor((3, 2))
        transform_binary(a, b, dst, lambda x, y: x + y)
        assert tensors_equal(dst, a)

    def test_mixed_layouts_match_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            a, b = rand_operand(rng, shape), rand_operand(rng, shape)
            dst = rand_operand(rng, shape)
            transform_binary(a, b, dst, lambda x, y: x + y)
            ba, bb, got = read_box(a), read_box(b), read_box(dst)
            assert all(got[i] == ba[i] + bb[i] for i in ba)

    def test_elementwise_squares(self):
        a = rand_dense(random.Random(8), (2, 2, 2))
        dst = DenseTensor((2, 2, 2))
        transform_binary(a, a, dst, lambda x, y: x * y)
        box = read_box(a)
        assert all(read_box(dst)[i] == box[i] ** 2 for i in box)

    def test_lockstep_pairs_share_multi_index(self):
        # Encode each element's multi-index; the callable must only ever
        # see matching codes.
        shape = (3, 2, 4)
        a = DenseTensor(shape, layout=(2, 3, 1))
        b = DenseTensor(shape, layout=(3, 1, 2))
        for k, i in enumerate(zero_indices(shape)):
            a[i] = k
            b[i] = k
        seen = []

        def op(x, y):
            seen.append((x, y))
            return 0

        transform_binary(a, b, DenseTensor(shape), op)
        assert len(seen) == a.size
        assert all(x == y for x, y in seen)


class TestCopy:
    def test_copy_across_layouts(self):
        src = rand_dense(random.Random(9), (4, 3))
        dst = DenseTensor((4, 3), offsets=(1, 1), layout=(2, 1))
        copy(src, dst)
        assert tensors_equal(src, dst)

    def test_copy_if_false_pred_untouched(self):
        src = rand_dense(random.Random(10), (3, 3))
        dst = rand_dense(random.Random(11), (3, 3))
        before = read_box(dst)
        copy_if(src, dst, lambda v: False)
        assert read_box(dst) == before

    def test_copy_if_true_pred_equals_copy(self):
        src = rand_dense(random.Random(12), (3, 3))
        dst = rand_dense(random.Random(13), (3, 3))
        copy_if(src, dst, lambda v: True)
        assert tensors_equal(src, dst)

    def test_copy_if_partial(self):
        src = rand_dense(random.Random(14), (4, 4))
        dst = rand_dense(random.Random(15), (4, 4))
        bs, bd = read_box(src), read_box(dst)
        copy_if(src, dst, lambda v: v > 0)
        got = read_box(dst)
        assert all(got[i] == (bs[i] if bs[i] > 0 else bd[i]) for i in bs)


class TestFillGenerateIota:
    def test_fill(self):
        t = rand_dense(random.Random(16), (2, 3, 2))
        fill(t, 42)
        assert t.data == [42] * t.size

    def test_generate_constant_equals_fill(self):
        a = rand_dense(random.Random(17), (3, 2))
        b = a.copy()
        generate(a, lambda: 5)
        fill(b, 5)
        assert a.data == b.data

    def test_generate_sequence_in_iteration_order(self):
        t = DenseTensor((3, 2, 2), layout=(2, 3, 1))
        counter = iter(range(100))
        generate(t, lambda: next(counter))
        for k, i in enumerate(iter_order(t.shape)):
            assert t[i] == k

    def test_iota_on_default_layout_matches_memory(self):
        t = DenseTensor((3, 2, 2))
        iota(t, 0)
        assert t.data == list(range(t.size))

    def test_iota_start(self):
        t = DenseTensor((2, 2), layout=(2, 1))
        iota(t, 10)
        assert sorted(t.data) == [10, 11, 12, 13]
        for k, i in enumerate(iter_order(t.shape)):
            assert t[i] == 10 + k


class TestQueries:
    def test_count_after_fill(self):
        t = rand_dense(random.Random(18), (3, 4))
        fill(t, 3)
        assert count_matching(t, value=3) == t.size

    def test_count_if_on_iota(self):
        t = DenseTensor((3, 4))
        iota(t, 0)
        assert count_matching(t, pred=lambda v: v < 2) == 2

    def test_count_partition(self):
        t = rand_dense(random.Random(19), (3, 4))
        assert (
            count_matching(t, value=3)
            + count_matching(t, pred=lambda v: v != 3)
            == t.size
        )

    def test_count_argument_check(self):
        t = DenseTensor((2,))
        with pytest.raises(ValueError):
            count_matching(t)
        with pytest.raises(ValueError):
            count_matching(t, value=1, pred=lambda v: True)

    def test_extremum_constant_tie_break(self):
        t = DenseTensor((3, 2), fill_value=4)
        assert extremum_element(t, "min") == ((0, 0), 4)
        assert extremum_element(t, "max") == ((0, 0), 4)

    def test_extremum_iota(self):
        t = DenseTensor((3, 2, 2), layout=(3, 1, 2))
        iota(t, 5)
        assert extremum_element(t, "min") == ((0, 0, 0), 5)
        idx, val = extremum_element(t, "max")
        assert val == 5 + t.size - 1
        assert idx == (2, 1, 1)

    def test_extremum_matches_oracle(self):
        rng = random.Random(20)
        for _ in range(20):
            shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            t = rand_operand(rng, shape, "float64")
            box = read_box(t)
            best = min(box.values())
            got_idx, got_val = extremum_element(t, "min")
            assert got_val == best and box[got_idx] == best

    def test_find_after_fill(self):
        t = rand_dense(random.Random(21), (2, 3))
        fill(t, 7)
        assert find_first(t, value=7) == (0, 0)

    def test_find_absent(self):
        t = DenseTensor((2, 2))
        assert find_first(t, value=99) is None

    def test_find_if_on_iota(self):
        t = DenseTensor((4, 3))
        iota(t, 0)
        k = 6
        expected = next(i for i in iter_order(t.shape) if k < t[i])
        assert find_first(t, pred=lambda v: v > k) == expected


class TestCompare:
    def test_equal_copies(self):
        a = rand_dense(random.Random(22), (3, 3))
        b = DenseTensor((3, 3), layout=(2, 1))
        copy(a, b)
        res = compare_ranges(a, b)
        assert res.equal and res.first_mismatch is None

    def test_perturbed_element_reported(self):
        a = rand_dense(random.Random(23), (3, 3))
        b = a.copy()
        o = a.offsets
        key = (1 + o[0], 2 + o[1])
        b[key] = a[key] + 1
        res = compare_ranges(a, b)
        assert not res.equal and res.first_mismatch == (1, 2)

    def test_equal_across_layouts(self):
        a = rand_dense(random.Random(24), (2, 3, 2))
        b = DenseTensor((2, 3, 2), layout=(3, 2, 1), offsets=(1, 1, 1))
        b.assign(a)
        assert compare_ranges(a, b).equal

    def test_nan_never_equals_itself(self):
        # Both buffers hold the same NaN object, so list equality (which
        # tries identity first) calls them equal; elementwise != does not.
        a = DenseTensor.from_memory((2, 2), [1.0, float("nan"), 2.0, 3.0])
        b = a.copy()
        assert a.data == b.data
        assert compare_ranges(a, b) == (False, (1, 0))
        assert not tensors_equal(a, b)
        assert not a == b


class TestQuantify:
    def test_all_after_fill(self):
        t = rand_dense(random.Random(25), (2, 4))
        fill(t, 2)
        assert all_of(t, lambda v: v == 2)

    def test_any_absent(self):
        t = DenseTensor((2, 2), fill_value=1)
        assert not any_of(t, lambda v: v == 9)

    def test_none_is_not_any(self):
        rng = random.Random(26)
        for _ in range(20):
            t = rand_dense(rng, (3, 2))
            k = rng.randint(-9, 9)
            pred = lambda v: v > k
            assert none_of(t, pred) == (not any_of(t, pred))

    def test_mode_check(self):
        with pytest.raises(ValueError):
            quantify(DenseTensor((2,)), lambda v: True, "most")


class TestReductions:
    def test_sum_of_ones(self):
        t = DenseTensor((2, 3, 4), fill_value=1)
        assert accumulate(t) == 24

    def test_projection_op_returns_init(self):
        t = rand_dense(random.Random(27), (3, 2))
        assert accumulate(t, init=11, op=lambda acc, v: acc) == 11

    def test_sum_layout_invariant(self):
        a = rand_dense(random.Random(28), (3, 2, 2))
        b = DenseTensor((3, 2, 2), layout=(2, 3, 1))
        b.assign(a)
        assert accumulate(a) == accumulate(b)

    def test_float_sum_bit_identical_across_layouts(self):
        a = rand_dense(random.Random(29), (3, 3, 2), kind="float64")
        b = DenseTensor((3, 3, 2), layout=(3, 1, 2))
        b.assign(a)
        assert accumulate(a, 0.0) == accumulate(b, 0.0)

    def test_inner_product_all_ones(self):
        t = DenseTensor((2, 2, 2), fill_value=1)
        assert inner_product_flat(t, t, 0) == 8

    def test_inner_product_orthogonal_indicators(self):
        a = DenseTensor((4,))
        b = DenseTensor((4,))
        a[0] = 1
        b[3] = 1
        assert inner_product_flat(a, b, 0) == 0

    def test_inner_product_mixed_layouts_oracle(self):
        rng = random.Random(30)
        for _ in range(20):
            shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            a, b = rand_operand(rng, shape), rand_operand(rng, shape)
            ba, bb = read_box(a), read_box(b)
            assert inner_product_flat(a, b, 0) == sum(
                ba[i] * bb[i] for i in ba
            )


class TestOverrun:
    # Cursors whose extents reach past the end of a 4-element buffer.  A
    # slice assignment would silently resize the list instead of failing.
    BAD = ((0, (1,), (6,)), (2, (1,), (3,)), (0, (2,), (3,)))

    @pytest.mark.parametrize("pos, strides, extents", BAD)
    @pytest.mark.parametrize("op", ["copy", "fill", "transform_unary"])
    def test_destination(self, op, pos, strides, extents):
        data = [0] * 4
        dst = MultiIterator(data, pos, strides, extents)
        src = DenseTensor(extents, fill_value=1)
        with pytest.raises(IndexError):
            if op == "copy":
                copy(src, dst)
            elif op == "fill":
                fill(dst, 1)
            else:
                transform_unary(src, dst, lambda x: x)
        assert len(data) == 4

    @pytest.mark.parametrize("pos, strides, extents", BAD)
    @pytest.mark.parametrize("op", ["copy", "transform_unary"])
    def test_source(self, op, pos, strides, extents):
        data = [0] * 4
        src = MultiIterator(data, pos, strides, extents)
        dst = DenseTensor(extents)
        with pytest.raises(IndexError):
            if op == "copy":
                copy(src, dst)
            else:
                transform_unary(src, dst, lambda x: x)
        assert len(data) == 4 and len(dst.data) == dst.size
