import inspect
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorlib import (
    DenseTensor,
    MultiIterator,
    Range,
    StrideIterator,
    copy,
    count_matching,
    fill,
    memory_index,
    walk_positions,
    zero_indices,
)
from tensorlib.iterators import (
    FiberPlan,
    _pair_plan,
    _plan,
    _positions,
    fill_range,
    inner_product_range,
    plan_fibers,
)

from conftest import all_layouts, rand_dense


SRC = Path(__file__).resolve().parent.parent / "src"


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
        with pytest.raises(ValueError):
            a.dim_end(3)

    def test_displacement_outside_box_raises(self):
        a = DenseTensor((4, 3, 2), offsets=(0, -1, 0))
        v = a.view(Range(0, 2, 2), None, None)
        assert a.dim_begin(2, at=(3, 99, 1)) == a.dim_begin(2, at=(3, -1, 1))
        with pytest.raises(IndexError, match="dimension 1"):
            a.dim_begin(2, at=(4, -1, 0))
        with pytest.raises(IndexError, match="dimension 3"):
            v.dim_end(1, at=(0, -1, -1))


class TestRangeChecks:
    """``fill_range`` and ``inner_product_range`` check both ends of every
    range before they touch an element."""

    def test_stride_zero_range_raises_instead_of_running_forever(self):
        # Run apart, so that a range that never ends cannot hang the suite.
        code = (
            "from tensorlib.iterators import StrideIterator as S, fill_range\n"
            "d = [0] * 4\n"
            "fill_range(S(d, 0, 0), S(d, 1, 0), 1)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=30, env=env)
        assert proc.returncode == 1
        assert "ValueError" in proc.stderr

    def test_range_below_the_buffer_raises_without_writing(self):
        # Positions 4, 0 and -4: the last would write position 8 through
        # Python's negative indexing.
        d = list(range(12))
        with pytest.raises(IndexError, match=re.escape(
                "cursor reaches [-4, 4] outside its buffer of 12 elements")):
            fill_range(StrideIterator(d, 4, -4), StrideIterator(d, -8, -4), 3)
        assert d == list(range(12))

    @pytest.mark.parametrize("first, last", [
        ((0, 4), (10, 4)),   # off the stride lattice
        ((8, 4), (0, 4)),    # a negative number of steps
        ((0, 4), (8, 2)),    # another stride
        ((0, 0), (1, 0)),    # stride 0 with a nonempty span
    ])
    def test_end_that_is_no_whole_number_of_steps_on_raises(self, first, last):
        d = list(range(12))
        with pytest.raises(ValueError):
            fill_range(StrideIterator(d, *first), StrideIterator(d, *last), 3)
        with pytest.raises(ValueError):
            inner_product_range(StrideIterator(d, *first), StrideIterator(d, *last),
                                StrideIterator(d, 0, 1), 0)
        assert d == list(range(12))

    def test_end_in_another_buffer_raises(self):
        d = list(range(12))
        with pytest.raises(ValueError):
            fill_range(StrideIterator(d, 0, 1), StrideIterator(d[:], 3, 1), 3)
        assert d == list(range(12))

    def test_range_past_the_buffer_raises(self):
        d = list(range(12))
        with pytest.raises(IndexError, match=re.escape("reaches [4, 12]")):
            fill_range(StrideIterator(d, 4, 4), StrideIterator(d, 16, 4), 3)
        assert d == list(range(12))

    @pytest.mark.parametrize("first2, message", [
        ((9, 1), "reaches [9, 12]"),
        ((2, -1), "reaches [-1, 2]"),
    ])
    def test_second_range_leaving_its_buffer_raises(self, first2, message):
        d = list(range(12))
        with pytest.raises(IndexError, match=re.escape(message)):
            inner_product_range(StrideIterator(d, 0, 1), StrideIterator(d, 4, 1),
                                StrideIterator(d, *first2), 0)

    def test_backward_and_empty_ranges_still_run(self):
        d = list(range(12))
        fill_range(StrideIterator(d, 8, -4), StrideIterator(d, -4, -4), 0)
        assert [j for j, v in enumerate(d) if v == 0] == [0, 4, 8]
        fill_range(StrideIterator(d, 5, 0), StrideIterator(d, 5, 0), 99)
        assert 99 not in d
        e = list(range(12))
        got = inner_product_range(StrideIterator(e, 11, -1), StrideIterator(e, 8, -1),
                                  StrideIterator(e, 0, 2), 0)
        assert got == 11 * 0 + 10 * 2 + 9 * 4


def range_sum_mismatches(seed, cases):
    """The random float cases on which ``inner_product_range`` and
    ``inner_product_flat`` over the same elements differ in any bit.

    Cases cycle through forward ranges, backward ranges, ranges against a
    stride-0 partner, and ranges from ``dim_begin``/``dim_end`` on views
    of tensors of random layouts.  Self-contained, so that it can run under
    another interpreter too.
    """
    import random
    from itertools import permutations

    from tensorlib import DenseTensor, Range, inner_product_flat
    from tensorlib.iterators import StrideIterator, inner_product_range

    rng = random.Random(seed)
    layouts = list(permutations((1, 2, 3)))

    def draw():
        # Magnitudes 2**-30 .. 2**30 apart, so that rounding shows.
        return rng.uniform(-1, 1) * 2.0 ** rng.randint(-30, 30)

    def raw_range(n, w):
        data = [draw() for _ in range(40)]
        reach = (n - 1) * abs(w)
        p = rng.randint(0, 39 - reach) + (reach if w < 0 else 0)
        return StrideIterator(data, p, w), StrideIterator(data, p + n * w, w)

    def view_range(r, at):
        o = tuple(rng.randint(-2, 2) for _ in range(3))
        t = DenseTensor((7, 5, 4), offsets=o, layout=rng.choice(layouts))
        t.data = [draw() for _ in range(t.size)]
        v = t.view(Range(o[0] + 1, 2, o[0] + 6), None, Range(o[2], o[2] + 2))
        at = tuple(x + k % n for x, k, n in zip(o, at, v.shape))
        return v.dim_begin(r, at=at), v.dim_end(r, at=at)

    def values(first, last):
        it, out = first.clone(), []
        while it != last:
            out.append(it.value)
            it.advance()
        return out

    bad = []
    for case in range(cases):
        kind, init = case % 4, draw()
        if kind < 3:
            n = rng.randint(1, 12)
            w = rng.randint(1, 3) * (-1 if kind == 1 else 1)
            first1, last1 = raw_range(n, w)
            first2, _ = raw_range(n, 0 if kind == 2 else rng.choice((-2, -1, 1, 3)))
        else:
            r, at = rng.randint(1, 3), [rng.randint(0, 9) for _ in range(3)]
            first1, last1 = view_range(r, at)
            first2, _ = view_range(r, at)
        xs = values(first1, last1)
        ys = [first2.value] * len(xs) if first2.stride == 0 else values(
            first2, first2.clone().advance(len(xs)))
        flat = inner_product_flat(
            DenseTensor.from_memory((len(xs),), xs),
            DenseTensor.from_memory((len(ys),), ys), init)
        got = inner_product_range(first1, last1, first2, init)
        if got.hex() != flat.hex():
            bad.append((case, got.hex(), flat.hex()))
    return bad


def newer_python():
    """The first of ``python3.13`` and ``python3.12`` that starts, or None."""
    for name in ("python3.13", "python3.12"):
        exe = shutil.which(name)
        if exe and subprocess.run([exe, "-c", "pass"], capture_output=True,
                                  timeout=60).returncode == 0:
            return exe
    return None


class TestRangeSums:
    """``inner_product_range`` reduces through the builtin ``sum`` as
    ``inner_product_flat`` does: from Python 3.12 that sum compensates
    float rounding, where a plain ``acc += a * b`` loop does not."""

    def test_range_sum_equals_flat_sum_bit_for_bit(self):
        assert range_sum_mismatches(seed=5, cases=200) == []

    def test_range_sum_equals_flat_sum_on_a_newer_python(self):
        exe = newer_python()
        if exe is None:
            pytest.skip("neither python3.13 nor python3.12 starts")
        code = (inspect.getsource(range_sum_mismatches)
                + "\nimport sys\nprint(sys.version_info >= (3, 12))"
                + "\nprint(range_sum_mismatches(seed=5, cases=200))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([exe, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["True", "[]"]


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


def random_cursors(rng):
    """1-3 cursors of one random shape (order 1-5, extents 0-4), each with
    strides that are dense for some layout, stepped, or arbitrary (zero
    and negative ones included), placed so that they stay in a buffer."""
    p = rng.randint(1, 5)
    extents = tuple(rng.randint(0, 4) for _ in range(p))
    cursors = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            order = rng.sample(range(p), p)
            strides, running = [0] * p, 1
            for r in order:
                strides[r] = running * rng.choice((1, 1, 2))
                running *= max(extents[r], 1)
        else:
            strides = [rng.choice((0, 1, 2, 3, 5, 12, -1, -4)) for _ in range(p)]
        reach = [(n - 1) * w for n, w in zip(extents, strides) if n]
        pos = -sum(d for d in reach if d < 0) + rng.randint(0, 3)
        size = pos + sum(d for d in reach if d > 0) + 1
        cursors.append(MultiIterator([0] * size, pos, strides, extents))
    return cursors


def flat(plan, k):
    """Cursor ``k``'s planned positions, fiber after fiber, read from the
    slices a kernel would take: every fiber stride must be positive."""
    assert plan.strides[k] > 0
    return [p for sl in plan.slices(k) for p in range(sl.start, sl.stop, sl.step)]


def brute_positions(it):
    """Position of every multi-index in ``zero_indices`` order, by
    definition."""
    return [
        it.pos + sum(i * w for i, w in zip(index, it.strides))
        for index in zero_indices(it.extents)
    ]


class TestPlanner:
    def test_random_cursor_sets_match_brute_force(self):
        rng = random.Random(12)
        for _ in range(3000):
            cursors = random_cursors(rng)
            want = [brute_positions(c) for c in cursors]
            in_order = plan_fibers(cursors)
            assert [flat(in_order, k) for k in range(len(cursors))] == want
            # Reordered: one common permutation, so the planned positions
            # of all cursors form the same tuples as the brute-force ones.
            free = plan_fibers(cursors, reorder=True)
            got = [flat(free, k) for k in range(len(cursors))]
            assert list(map(len, got)) == list(map(len, want))
            assert sorted(zip(*got)) == sorted(zip(*want))

    def test_pair_plan_is_the_plan_of_two_cursors(self):
        # The engine's free loops and output: the same fibers as _plan of
        # two cursors with those loops, in order, and sorted by the first
        # cursor's stride (the engine's reorder) the same pairs.
        rng = random.Random(14)
        for _ in range(3000):
            c0, c1 = (random_cursors(rng) * 2)[:2]
            loops = list(zip(c0.strides, c0.extents, c1.strides))
            want = [brute_positions(c0), brute_positions(c1)]
            for order in (loops, sorted(loops)):
                plan = FiberPlan(*_pair_plan(order, c0.pos, c1.pos))
                got = [flat(plan, k) for k in range(2)]
                assert sorted(zip(*got)) == sorted(zip(*want))
            if 0 not in c0.extents:
                assert _pair_plan(loops, c0.pos, c1.pos) == tuple(_plan((c0, c1)))

    def test_positions_match_brute_force(self):
        # A range while the dimensions run on from each other, else a list.
        rng = random.Random(15)
        for _ in range(3000):
            c = random_cursors(rng)[0]
            if not c.extents:
                continue
            assert list(_positions(c.pos, c.strides, c.extents)) == brute_positions(c)
        assert _positions(5, (1, 4, 12), (4, 3, 2)) == range(5, 29)
        assert _positions(5, (2, 8, 24), (4, 3, 2)) == range(5, 53, 2)
        assert _positions(0, (1, 5), (4, 2)) == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_zero_dimension_cursors_match_brute_force(self):
        # No dimensions: one fiber of one element at each cursor's position,
        # as a fully contracted step of the contraction engine plans it.
        rng = random.Random(13)
        for _ in range(200):
            cursors = []
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(1, 4)
                cursors.append(MultiIterator([0] * size, rng.randrange(size), (), ()))
            want = [brute_positions(c) for c in cursors]
            for reorder in (False, True):
                for plan in (plan_fibers(cursors, reorder), _plan(cursors, reorder)):
                    assert plan.length == 1
                    assert [flat(plan, k) for k in range(len(cursors))] == want
        for pos in (-1, 4):
            inside = MultiIterator([0] * 2, 1, (), ())
            outside = MultiIterator([0] * 4, pos, (), ())
            with pytest.raises(IndexError, match=rf"reaches \[{pos}, {pos}\]"):
                plan_fibers((inside, outside))

    def test_merges_contiguous_dimensions(self):
        plan = plan_fibers((DenseTensor((4, 3, 2)).miter(),))
        assert (plan.length, plan.strides, plan.starts) == (24, (1,), ([0],))

    def test_reorder_walks_source_stride_innermost(self):
        # The first cursor, the one a write reads, keys the reorder.
        src = DenseTensor((4, 3), layout=(1, 2)).miter()
        dst = DenseTensor((4, 3), layout=(2, 1)).miter()
        plan = plan_fibers((src, dst), reorder=True)
        assert (plan.length, plan.strides) == (4, (1, 3))
        assert plan_fibers((dst, src), reorder=True).strides == (1, 4)
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


class TestNegativeExtents:
    """A raw cursor with a negative extent is no empty cursor: the door and
    the planner's public forms reject it before any buffer is touched
    (zero extents stay legal: ``TestZeroExtentCursors`` in ``test_elementwise.py``)."""

    FIELDS = [(5, (1,), (-2,)), (0, (1, 3), (3, -1))]
    HEALTHY = {(-2,): (0, (1,), (2,)), (3, -1): (0, (1, 3), (3, 1))}

    @staticmethod
    def cursor(fields):
        return MultiIterator(list(range(10)), *fields)

    def calls(self, fields):
        bad, other = self.cursor(fields), self.cursor(fields)
        healthy = self.cursor(self.HEALTHY[fields[2]])
        return [bad, other, healthy], {
            "fill": lambda: fill(bad, 9),
            "copy_from": lambda: copy(bad, healthy),
            "copy_into": lambda: copy(healthy, bad),
            "copy_between": lambda: copy(bad, other),
            "count_matching": lambda: count_matching(bad, value=5),
            "walk_positions": lambda: walk_positions(bad),
            "plan_fibers": lambda: plan_fibers((bad,)),
        }

    @pytest.mark.parametrize("fields", FIELDS, ids=["(-2,)", "(3, -1)"])
    @pytest.mark.parametrize("call", ["fill", "copy_from", "copy_into", "copy_between",
                                      "count_matching", "walk_positions", "plan_fibers"])
    def test_rejected_before_anything_is_written(self, fields, call):
        cursors, calls = self.calls(fields)
        with pytest.raises(ValueError, match=re.escape(f"nonnegative, got {fields[2]}")):
            calls[call]()
        for c in cursors:
            assert c.data == list(range(10))
