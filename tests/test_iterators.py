import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorlib import (
    DenseTensor,
    MultiIterator,
    Range,
    StrideIterator,
    memory_index,
    walk_positions,
    zero_indices,
)
from tensorlib.iterators import fill_range, inner_product_range, plan_fibers

from conftest import all_layouts, rand_dense


def iota_tensor(shape, **kw):
    t = DenseTensor(shape, **kw)
    for j in range(t.size):
        t.set_memory(j, j)
    return t


class TestStrideIterator:
    def test_fiber_positions(self):
        # shape (4,3,2) default layout: strides (1,4,12); the dimension-2
        # fiber from the origin sits at memory indices 0, 4, 8.
        a = DenseTensor((4, 3, 2))
        first = a.dim_begin(2)
        last = a.dim_end(2)
        assert (first.pos, first.stride) == (0, 4)
        assert (last.pos, last.stride) == (12, 4)
        seen = []
        while first != last:
            seen.append(first.pos)
            first.advance()
        assert seen == [0, 4, 8]

    def test_unit_stride_covers_memory(self):
        a = iota_tensor((3, 4))
        it = StrideIterator(a.data, 0, 1)
        end = StrideIterator(a.data, a.size, 1)
        seen = []
        while it != end:
            seen.append(it.value)
            it.advance()
        assert seen == list(range(12))

    def test_fill_fiber(self):
        a = DenseTensor((4, 3, 2))
        fill_range(a.dim_begin(2), a.dim_end(2), 5.0)
        assert sorted(j for j, v in enumerate(a.data) if v == 5.0) == [0, 4, 8]

    def test_advance_k_and_ordering(self):
        a = iota_tensor((10,))
        it = a.dim_begin(1)
        it.advance(3)
        assert it.pos == 3 and it.value == 3
        other = a.dim_begin(1)
        assert other < it and it > other and other <= it

    def test_equality_includes_stride(self):
        data = [0] * 4
        assert StrideIterator(data, 2, 1) == StrideIterator(data, 2, 1)
        assert StrideIterator(data, 2, 1) != StrideIterator(data, 2, 2)

    def test_write_through_value(self):
        a = DenseTensor((3,))
        it = a.dim_begin(1)
        it.value = 9
        assert a.data[0] == 9


class TestDimRanges:
    def test_inner_product_of_fibers(self):
        a = iota_tensor((2, 3, 3))
        b = iota_tensor((4, 3), layout=(2, 1))
        got = inner_product_range(a.dim_begin(3), a.dim_end(3), b.dim_begin(2), 0.0)
        want = sum(a[0, 0, k] * b[0, k] for k in range(3))
        assert got == want

    def test_whole_vector(self):
        a = iota_tensor((5,))
        it, end = a.dim_begin(1), a.dim_end(1)
        assert it.stride == 1 and end.pos - it.pos == 5

    def test_displaced_fiber(self):
        a = iota_tensor((4, 3, 2), offsets=(0, -1, 0))
        it = a.dim_begin(2, at=(1, -1, 1))
        end = a.dim_end(2, at=(1, -1, 1))
        seq = []
        while it != end:
            seq.append(it.value)
            it.advance()
        assert seq == [a[1, k - 1, 1] for k in range(3)]

    def test_view_fiber_matches_materialize(self):
        a = rand_dense(random.Random(1), (5, 4, 3))
        v = a.view(Range(a.offsets[0], 2, a.offsets[0] + 4), None, 1 + a.offsets[2])
        m = v.materialize()
        it, end = v.dim_begin(2), v.dim_end(2)
        seq = []
        while it != end:
            seq.append(it.value)
            it.advance()
        assert seq == [m[0, k, 0] for k in range(v.shape[1])]

    def test_view_displaced_fiber(self):
        a = rand_dense(random.Random(2), (5, 4, 3))
        o = a.offsets
        v = a.view(Range(o[0], 2, o[0] + 4), None, Range(o[2], o[2] + 1))
        m = v.materialize()
        at = (o[0] + 1, o[1], o[2] + 1)
        it, end = v.dim_begin(2, at=at), v.dim_end(2, at=at)
        seq = []
        while it != end:
            seq.append(it.value)
            it.advance()
        assert seq == [m[1, k, 1] for k in range(v.shape[1])]

    def test_dim_out_of_range(self):
        a = DenseTensor((2, 2))
        with pytest.raises(ValueError):
            a.dim_begin(3)
        with pytest.raises(ValueError):
            a.dim_begin(0)


class TestMultiIterator:
    def test_baseline_fill_any_layout(self):
        for layout in all_layouts(3):
            a = DenseTensor((3, 2, 4), layout=layout)
            it = a.miter()
            f2, e2 = it.begin(2), it.end(2)
            while f2 != e2:
                it.move_to(f2)
                f1, e1 = it.begin(1), it.end(1)
                while f1 != e1:
                    it.move_to(f1)
                    fill_range(it.begin(0), it.end(0), 7)
                    f1.advance()
                f2.advance()
            assert a.data == [7] * a.size

    def test_order_one_single_pass(self):
        a = DenseTensor((6,))
        it = a.miter()
        fill_range(it.begin(0), it.end(0), 3)
        assert a.data == [3] * 6

    def test_begin_end_span(self):
        a = DenseTensor((3, 4), layout=(2, 1))
        it = a.miter()
        for r in range(2):
            assert it.end(r).pos - it.begin(r).pos == a.shape[r] * a.strides[r]
            assert it.begin(r).stride == a.strides[r]

    def test_assignment_moves_position_only(self):
        a = DenseTensor((3, 4))
        it = a.miter()
        st = it.begin(1)
        st.advance(2)
        it.move_to(st)
        assert it.pos == 2 * a.strides[1]
        assert it.strides == a.strides

    def test_equality_is_position_and_source(self):
        a = DenseTensor((2, 2))
        b = DenseTensor((2, 2))
        assert a.miter() == a.miter()
        assert a.miter() != b.miter()

    def test_depth_bounds(self):
        it = DenseTensor((2, 2)).miter()
        with pytest.raises(ValueError):
            it.begin(2)
        with pytest.raises(ValueError):
            it.end(-1)


class TestCompleteness:
    def test_every_memory_index_once(self):
        for p in (1, 2, 3):
            for layout in all_layouts(p):
                shape = (3, 2, 4)[:p]
                a = DenseTensor(shape, layout=layout)
                visits = walk_positions(a.miter())
                assert sorted(visits) == list(range(a.size))

    def test_view_positions_match_mapped_set(self):
        a = iota_tensor((5, 4, 3), layout=(3, 1, 2))
        v = a.view(Range(1, 2, 4), Range(0, 2, 3), None)
        visits = walk_positions(v.miter())
        expected = set()
        firsts = [r[0] for r in v.ranges]
        steps = [r[1] for r in v.ranges]
        for i in zero_indices(v.shape):
            target_idx = tuple(f + t * k for f, t, k in zip(firsts, steps, i))
            expected.add(memory_index(a.strides, target_idx, a.offsets))
        assert len(visits) == len(expected)
        assert set(visits) == expected

    def test_final_address_law(self):
        # After fixing loop indices, the reached memory index equals the
        # zero-based layout function value (plus the view corner).
        a = DenseTensor((3, 2, 4), layout=(2, 3, 1))
        it = a.miter()
        i = (2, 1, 3)
        pos = 0
        for r, k in enumerate(i):
            pos += k * it.strides[r]
        assert pos == memory_index(a.strides, i, (0, 0, 0))
        v = a.view(Range(1, 1, 2), None, Range(0, 3, 3))
        vit = v.miter()
        iv = (1, 0, 1)
        pos = vit.pos
        for r, k in enumerate(iv):
            pos += k * vit.strides[r]
        firsts = [r[0] for r in v.ranges]
        steps = [r[1] for r in v.ranges]
        target_idx = tuple(f + t * k for f, t, k in zip(firsts, steps, iv))
        assert pos == memory_index(a.strides, target_idx, a.offsets)

    def test_view_strides_are_scaled(self):
        a = DenseTensor((6, 4), layout=(2, 1))
        v = a.view(Range(0, 2, 4), Range(1, 3, 3))
        assert v.strides == (a.strides[0] * 2, a.strides[1] * 3)
        assert v.miter().strides == v.strides


@st.composite
def cursors(draw):
    """A tensor of order 1-4 at any layout, or a stepped view into one:
    extent-1 dimensions, offsets and strided corners included."""
    p = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(p))
    layout = tuple(draw(st.permutations(range(1, p + 1))))
    offsets = tuple(draw(st.integers(-2, 2)) for _ in range(p))
    t = DenseTensor(shape, offsets=offsets, layout=layout)
    if not draw(st.booleans()):
        return t.miter()
    ranges = []
    for n, o in zip(shape, offsets):
        f = draw(st.integers(o, o + n - 1))
        step = draw(st.integers(1, 3))
        last = draw(st.integers(f, o + n - 1))
        ranges.append(Range(f, step, last))
    return t.view(ranges).miter()


def plan_positions(plan, k):
    return [p for sl in plan.slices(k) for p in range(sl.start, sl.stop, sl.step)]


def expected_positions(it):
    """``gamma + memory_index`` of every zero-based multi-index, dimension 1
    fastest."""
    zero = (0,) * it.order
    return [it.pos + memory_index(it.strides, i, zero) for i in zero_indices(it.extents)]


class TestVisitOrder:
    @given(cursors())
    @settings(max_examples=300, deadline=None)
    def test_order_preserving_plan_visits_in_iteration_order(self, it):
        want = expected_positions(it)
        assert plan_positions(plan_fibers((it,)), 0) == want
        assert walk_positions(it) == want

    @given(cursors())
    @settings(max_examples=300, deadline=None)
    def test_reordering_plan_visits_the_same_multiset(self, it):
        got = plan_positions(plan_fibers((it,), reorder=True), 0)
        assert sorted(got) == sorted(expected_positions(it))

    @given(cursors(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_joint_plans_pair_equal_multi_indices(self, it, data):
        # A second cursor of the same extents under another layout: every
        # planned pair of positions must belong to one multi-index.
        layout = tuple(data.draw(st.permutations(range(1, it.order + 1))))
        other = DenseTensor(it.extents, layout=layout).miter()
        want = list(zip(expected_positions(it), expected_positions(other)))
        in_order = plan_fibers((it, other))
        assert list(zip(plan_positions(in_order, 0), plan_positions(in_order, 1))) == want
        free = plan_fibers((it, other), reorder=True)
        pairs = zip(plan_positions(free, 0), plan_positions(free, 1))
        assert sorted(pairs) == sorted(want)


class TestPlanner:
    def test_merges_contiguous_dimensions(self):
        plan = plan_fibers((DenseTensor((4, 3, 2)).miter(),))
        assert (plan.length, plan.strides, plan.starts) == (24, (1,), ([0],))

    def test_reorder_walks_destination_stride_innermost(self):
        src = DenseTensor((4, 3), layout=(1, 2)).miter()
        dst = DenseTensor((4, 3), layout=(2, 1)).miter()
        plan = plan_fibers((src, dst), reorder=True)
        assert (plan.length, plan.strides) == (3, (4, 1))
        assert plan_fibers((src, dst)).strides == (1, 3)

    def test_reach_below_buffer(self):
        # Negative positions would wrap around to the end of the list.
        data = [0] * 4
        for pos, strides in ((-1, (1,)), (1, (-2,))):
            with pytest.raises(IndexError):
                plan_fibers((MultiIterator(data, pos, strides, (2,)),))

    def test_zero_volume_has_no_fibers(self):
        plan = plan_fibers((MultiIterator([], 0, (1, 0), (0, 3)),))
        assert plan.starts == ([],)
