import itertools
import random
import re
import sys
import tracemalloc
from operator import add, sub

import pytest

from tensorlib import (
    DenseTensor,
    MultiIterator,
    Range,
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
    outer_product,
    quantify,
    tensors_equal,
    transform_binary,
    transform_unary,
    transpose,
    ttv,
    walk_positions,
    zero_indices,
)
from tensorlib.contraction import frobenius_norm
import tensorlib.elementwise as ew
from tensorlib.elementwise import _fibers
from tensorlib.iterators import _plan, plan_fibers
from tensorlib.verify import read_flat

from conftest import FAR_NAMES, far_strided, rand_dense, rand_operand, read_box


def iter_order(shape):
    """Iteration order of the suites: dimension 1 fastest."""
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


def iota_dense(shape, layout=None):
    t = DenseTensor(shape, layout=layout)
    iota(t)
    return t


LAST = (3, 2, 1)

# (write, its source, the write of that source): each (4, 3, 2) write reads
# a source whose layout differs from its destination's.
SOURCE_KEYED = [
    ("copy", lambda: iota_dense((4, 3, 2)),
     lambda s: copy(s, DenseTensor(s.shape, layout=LAST))),
    ("copy_if", lambda: iota_dense((4, 3, 2)),
     lambda s: copy_if(s, DenseTensor(s.shape, layout=LAST), bool)),
    ("transform_unary", lambda: iota_dense((4, 3, 2)),
     lambda s: transform_unary(s, DenseTensor(s.shape, layout=LAST), abs)),
    ("transform_binary", lambda: iota_dense((4, 3, 2)),
     lambda s: transform_binary(s, s, DenseTensor(s.shape, layout=LAST), add)),
    ("relayout", lambda: iota_dense((4, 3, 2)), lambda s: s.relayout(LAST)),
    ("assign", lambda: iota_dense((4, 3, 2)),
     lambda s: DenseTensor(s.shape, layout=LAST).assign(s)),
    ("materialize", lambda: iota_dense((4, 3, 2), LAST).view([None] * 3),
     lambda s: s.materialize()),
    ("transpose", lambda: iota_dense((2, 3, 4)), lambda s: transpose(s, (3, 2, 1))),
]


@pytest.mark.parametrize("name, source, write", SOURCE_KEYED, ids=[c[0] for c in SOURCE_KEYED])
def test_writes_plan_with_their_source_first(monkeypatch, name, source, write):
    # The reorder keys on the first cursor, so the source is read in
    # stride-1 fibers (keyed on the destination it read stride-12 or
    # stride-6 ones).
    src = source()
    data = src.miter().data
    plans = []

    def spy(cursors, reorder=False):
        plan = _plan(cursors, reorder)
        plans.append((cursors[0].data is data, reorder, plan.strides[0]))
        return plan

    monkeypatch.setattr(ew, "_plan", spy)
    write(src)
    assert plans == [(True, True, 1)]


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

    @pytest.mark.parametrize("kind", ["median", "MIN", None])
    def test_extremum_kind_check(self, kind):
        with pytest.raises(ValueError, match=re.escape(f"kind must be 'min' or 'max', got {kind!r}")):
            extremum_element(DenseTensor((2, 3)), kind)

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
        # Against itself: both sides read the one buffer in place.
        assert compare_ranges(a, a) == (False, (1, 0))
        assert not tensors_equal(a, a)


class TestFarStridedEquality:
    """Equality of a far-strided operand (one that the flag pass may read in
    tiles) against the same values at the other order layout, in both
    argument orders, for int and float elements: equal, then with two
    planted mismatches whose first in iteration order is reported, though
    a tiled walk meets the other first."""

    @staticmethod
    def first_mismatch(x, y):
        k = next(k for k, (u, v) in enumerate(zip(read_flat(x), read_flat(y))) if u != v)
        return next(itertools.islice(zero_indices(x.shape), k, None))

    @pytest.mark.parametrize("kind", ["int64", "float64"])
    @pytest.mark.parametrize("name", FAR_NAMES)
    def test_equal_then_the_first_planted_mismatch(self, name, kind):
        a, _ = far_strided(random.Random(f"{name}:{kind}"), name, kind)
        other = DenseTensor(a.shape, layout=(3, 2, 1) if name.startswith("first") else (1, 2, 3))
        copy(a, other)
        for x, y in ((a, other), (other, a)):
            assert tensors_equal(x, y)
            assert compare_ranges(x, y) == (True, None)
        # At (3, 64, 64) iteration order meets (0, 5, 1) first, and a walk
        # in runs along dimension 3 meets (2, 0, 63) first; (64, 64, 3)
        # mirrors them.
        planted = [(0, 5, 1), (2, 0, 63)] if a.shape[0] == 3 else [(1, 5, 0), (63, 0, 2)]
        for i in planted:
            other[i] += 1
        for x, y in ((a, other), (other, a)):
            assert not tensors_equal(x, y)
            assert compare_ranges(x, y) == (False, planted[0]) == (False, self.first_mismatch(x, y))


def first_order(rng, shape, kind):
    """A random tensor of first-order layout and zero offsets: every plan
    over it alone, in iteration order or reordered, is one whole-buffer
    fiber."""
    t = rand_dense(rng, shape, kind)
    return DenseTensor.from_memory(shape, t.data)


class TestWholeBufferReads:
    """A cursor whose plan is one stride-1 fiber as long as its buffer is
    read as that buffer itself, not a copy; no result may tell."""

    def test_whole_buffer_fiber_is_the_buffer(self):
        t = DenseTensor.from_memory((3, 4), list(range(12)))
        it = t.miter()
        (fiber,) = _fibers(plan_fibers((it,)), 0, it)
        assert fiber is it.data
        # Last-order: whole only when the loops may be reordered.
        u = DenseTensor.from_memory((3, 4), list(range(12)), layout=(2, 1))
        iu = u.miter()
        (fiber,) = _fibers(plan_fibers((iu,), reorder=True), 0, iu)
        assert fiber is iu.data
        assert len(list(_fibers(plan_fibers((iu,)), 0, iu))) == 4
        # One stride-1 fiber, but shorter than the buffer: a copy.
        v = t.view(None, Range(0, 2)).miter()
        (fiber,) = _fibers(plan_fibers((v,)), 0, v)
        assert fiber == list(range(9)) and fiber is not v.data

    @pytest.mark.parametrize("seed", range(12))
    def test_in_place_equals_running_on_a_copy(self, seed):
        rng = random.Random(seed)
        shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        kind = ("int64", "float64")[seed % 2]
        t = rand_dense(rng, shape, kind)
        b = rand_operand(rng, shape, kind)
        assert plan_fibers((t.miter(),), reorder=True).length == len(t.data)

        def f(x):
            return 3 * x - 1

        def pred(x):
            return x > 1

        ops = [
            lambda src, dst: transform_unary(src, dst, f),
            lambda src, dst: transform_binary(src, b, dst, sub),
            copy,
            lambda src, dst: copy_if(src, dst, pred),
        ]
        for op in ops:
            expected = t.copy()
            op(t.copy(), expected)
            got = t.copy()
            op(got, got)
            assert list(map(repr, got.data)) == list(map(repr, expected.data))
        expected = t.copy()
        transform_unary(t.copy(), expected, f)
        got = t.copy()
        for_each(got, f)
        assert list(map(repr, got.data)) == list(map(repr, expected.data))

    def test_first_mismatch_matches_a_scan(self):
        rng = random.Random(32)
        for trial in range(300):
            shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            kind = ("int64", "float64")[trial % 2]
            draw = [first_order if rng.random() < 0.4 else rand_operand for _ in "ab"]
            a, b = draw[0](rng, shape, kind), draw[1](rng, shape, kind)
            values = [read_box(a)[i] for i in iter_order(shape)]
            for _ in range(rng.choice((0, 0, 1, 2))):
                values[rng.randrange(len(values))] += 1
            generate(b, iter(values).__next__)
            box_a, box_b = read_box(a), read_box(b)
            want = next((i for i in iter_order(shape) if box_a[i] != box_b[i]), None)
            assert compare_ranges(a, b) == (want is None, want)
            assert compare_ranges(b, a) == (want is None, want)
            assert tensors_equal(a, b) == (want is None)


def test_whole_buffer_reads_make_no_copy():
    # A fiber copied as a list slice would hold one reference per element:
    # the buffer's size again.
    shape = (64, 32, 32)
    a = first_order(random.Random(33), shape, "float64")
    b = DenseTensor.from_memory(shape, list(a.data))
    limit = sys.getsizeof(a.data) // 4
    for call in (
        lambda: inner_product_flat(a, b),
        lambda: frobenius_norm(a),
        lambda: tensors_equal(a, b),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


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
        with pytest.raises(ValueError, match="mode must be 'all', 'any' or 'none', got 'most'"):
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


class TestZeroExtentCursors:
    """A cursor with a zero extent addresses no element, so its position is
    never read and may lie anywhere: here a raw (0, 3) cursor positioned
    past the end of its two-element buffer."""

    @staticmethod
    def empty():
        return MultiIterator([1.0, 2.0], 5, (1, 2), (0, 3))

    def test_writes_do_nothing(self):
        z = self.empty
        writes = [
            lambda d: fill(d, 9),
            lambda d: copy(z(), d),
            lambda d: transform_unary(z(), d, abs),
            lambda d: transform_binary(z(), z(), d, add),
            lambda d: for_each(d, abs),
            lambda d: copy_if(z(), d, bool),
            lambda d: generate(d, lambda: 3),
            lambda d: iota(d),
        ]
        for write in writes:
            dst = z()
            write(dst)
            assert dst.data == [1.0, 2.0]

    def test_queries_and_reductions_see_no_element(self):
        z = self.empty
        assert count_matching(z(), 1.0) == 0
        assert find_first(z(), 1.0) is None
        assert extremum_element(z()) == (None, None)
        assert [quantify(z(), bool, m) for m in ("all", "any", "none")] == [True, False, True]
        assert compare_ranges(z(), z()) == (True, None)
        assert accumulate(z(), 7) == 7
        assert inner_product_flat(z(), z(), 7) == 7
        assert frobenius_norm(z()) == 0.0
        assert walk_positions(z()) == []

    def test_zero_bound_extent_in_ttv_gives_zeros(self):
        a = MultiIterator([1.0], 5, (1, 3), (3, 0))
        out = ttv(a, MultiIterator([], 4, (1,), (0,)), 2)
        assert (out.shape, out.data) == ((3,), [0, 0, 0])

    def test_zero_free_extent_raises(self):
        # The output would have a zero extent, which no tensor has.
        a = MultiIterator([1.0], 5, (1, 3), (0, 3))
        calls = [
            lambda: ttv(a, DenseTensor((3,)), 2),
            lambda: transpose(self.empty(), (2, 1)),
            lambda: outer_product(self.empty(), DenseTensor((2,))),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="extents must be positive"):
                call()
