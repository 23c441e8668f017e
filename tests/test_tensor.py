import json
import random

import pytest

from tensorlib import (
    DenseTensor,
    Range,
    TensorView,
    inverse_memory_index,
    layout,
    tensor,
    tensors_equal,
    zero_indices,
)

from conftest import all_layouts, rand_dense


def iota_tensor(shape, **kw):
    t = DenseTensor(shape, **kw)
    for j in range(t.size):
        t.set_memory(j, j)
    return t


class TestConstruction:
    def test_default(self):
        t = DenseTensor((4, 2, 3))
        assert t.strides == (1, 4, 8)
        assert t.offsets == (0, 0, 0)
        assert t.data == [0] * 24

    def test_offsets_and_layout(self):
        t = DenseTensor((4, 2, 3), offsets=(1, -1, 0), layout=(3, 2, 1))
        assert t.strides == (6, 3, 1)
        assert t.offsets == (1, -1, 0)

    def test_single_element(self):
        t = DenseTensor((1,))
        assert t.size == 1 and t.strides == (1,)

    def test_invalid_layout(self):
        with pytest.raises(ValueError):
            DenseTensor((2, 2), layout=(1, 1))

    def test_from_memory_length_check(self):
        with pytest.raises(ValueError):
            DenseTensor.from_memory((2, 2), [1, 2, 3])


class TestElementAccess:
    def test_superdiagonal_fill(self):
        for layout in all_layouts(3):
            t = DenseTensor((3, 3, 3), layout=layout)
            for i in range(3):
                t[i, i, i] = 1
            assert sum(t.data) == 3
            assert all(t[i, i, i] == 1 for i in range(3))

    def test_first_index_is_memory_zero(self):
        t = iota_tensor((4, 2, 3), offsets=(1, -1, 0), layout=(3, 2, 1))
        assert t[1, -1, 0] == 0

    def test_hand_evaluated_address(self):
        t = iota_tensor((4, 2, 3))
        assert t[3, 1, 2] == 23

    def test_bounds(self):
        t = DenseTensor((2, 2), offsets=(1, 0))
        with pytest.raises(IndexError):
            t[0, 0]
        with pytest.raises(IndexError):
            t[1, 2]
        with pytest.raises(ValueError):
            t[1]

    def test_memory_access(self):
        t = DenseTensor((2, 3))
        for j in range(t.size):
            t.set_memory(j, 0)
        assert t.data == [0] * 6
        t.set_memory(4, 7)
        assert t.get_memory(4) == 7
        with pytest.raises(IndexError):
            t.get_memory(6)
        with pytest.raises(IndexError):
            t.set_memory(-1, 0)

    def test_memory_vs_multi_index(self):
        t = iota_tensor((3, 2, 2), offsets=(0, -1, 2), layout=(2, 1, 3))
        o = t.offsets
        for j in range(t.size):
            i = inverse_memory_index(t.meta, j)
            assert t[tuple(a + b for a, b in zip(i, o))] == j

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda a: a.dim_begin(2, at=(1, 0)), "expected 3 indices, got 2"),
            (lambda a: a.dim_end(1, at=(0, 0, 0, 0)), "expected 3 indices, got 4"),
        ],
        ids=["dim_begin", "dim_end"],
    )
    def test_fiber_at_of_wrong_length(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(DenseTensor((4, 3, 2)))


class TestLayoutTransparency:
    def test_all_layouts_agree(self):
        # Writing f(i) through multi-indices gives equal tensors under
        # every storage permutation.
        for p, shape in ((2, (3, 2)), (3, (2, 3, 2)), (4, (2, 2, 3, 2))):
            builds = []
            for layout in all_layouts(p):
                t = DenseTensor(shape, layout=layout)
                for k, i in enumerate(zero_indices(shape)):
                    t[i] = 7 * k + 1
                builds.append(t)
            first = builds[0]
            assert all(tensors_equal(first, other) for other in builds[1:])


class TestAssign:
    def test_equal_order_keeps_layout(self):
        a = DenseTensor((4, 2, 3))
        for j in range(a.size):
            a.set_memory(j, j)
        b = DenseTensor((4, 2, 3), offsets=(1, -1, 0), layout=(3, 2, 1))
        b.assign(a)
        assert b.layout == (3, 2, 1)
        assert b.offsets == (1, -1, 0)
        assert tensors_equal(a, b)
        assert b.data != a.data  # layout-converted, not byte-copied

    def test_self_assignment(self):
        a = rand_dense(random.Random(0), (2, 3))
        before = list(a.data)
        a.assign(a)
        assert a.data == before

    def test_order_change_adopts_everything(self):
        a = rand_dense(random.Random(1), (3, 2))
        b = DenseTensor((2, 2, 2), layout=(3, 1, 2))
        b.assign(a)
        assert b.shape == a.shape
        assert b.layout == a.layout
        assert b.offsets == a.offsets
        assert b.data == a.data

    def test_same_order_different_shape(self):
        a = rand_dense(random.Random(2), (3, 4))
        b = DenseTensor((2, 2), offsets=(1, 1), layout=(2, 1))
        b.assign(a)
        assert b.shape == (3, 4)
        assert b.layout == (2, 1)
        assert b.offsets == (1, 1)
        assert tensors_equal(a, b)

    def test_from_view_equal_order_keeps_layout(self):
        from tensorlib import Range

        a = rand_dense(random.Random(7), (5, 4))
        o = a.offsets
        v = a.view(Range(o[0], 2, o[0] + 4), Range(o[1] + 1, 1, o[1] + 3))
        b = DenseTensor((3, 3), offsets=(-1, -1), layout=(2, 1))
        b.assign(v)
        assert b.shape == v.shape == (3, 3)
        assert b.layout == (2, 1) and b.offsets == (-1, -1)
        assert tensors_equal(b, v.materialize())

    def test_from_view_order_change_adopts_target_tuples(self):
        from tensorlib import Range

        a = rand_dense(random.Random(8), (4, 3, 2))
        o = a.offsets
        v = a.view(Range(o[0], o[0] + 2), None, o[2] + 1)
        b = DenseTensor((2, 2))
        b.assign(v)
        assert b.shape == v.shape
        assert b.layout == a.layout
        assert b.offsets == a.offsets
        assert tensors_equal(b, v.materialize())


class TestEquality:
    def test_assign_copy_with_other_layout(self):
        a = rand_dense(random.Random(3), (4, 2, 3))
        b = DenseTensor((4, 2, 3), layout=(3, 2, 1))
        b.assign(a)
        assert tensors_equal(a, b)
        assert a == b

    def test_shape_mismatch(self):
        assert not tensors_equal(DenseTensor((2, 3)), DenseTensor((3, 2)))

    def test_single_differing_element(self):
        a = DenseTensor((2, 2))
        b = DenseTensor((2, 2))
        b[1, 0] = 5
        assert not tensors_equal(a, b)


class TestFill:
    def test_fill_one(self):
        t = DenseTensor((4, 2, 3), layout=(3, 2, 1))
        t.fill(1)
        assert t.data == [1] * 24

    def test_fill_zero_matches_fresh(self):
        t = rand_dense(random.Random(4), (2, 3))
        t.fill(0)
        assert t.data == DenseTensor((2, 3)).data

    def test_fill_then_read(self):
        t = DenseTensor((2, 2), offsets=(-1, -1))
        t.fill(9)
        assert t[-1, -1] == 9 and t[0, 0] == 9


class TestRelayout:
    def test_first_to_last_order(self):
        t = iota_tensor((4, 2, 3))
        snapshot = t.copy()
        t.relayout((3, 2, 1))
        assert t.strides == (6, 3, 1)
        assert t.data != snapshot.data
        assert tensors_equal(t, snapshot)

    def test_noop(self):
        t = iota_tensor((4, 2, 3))
        before = list(t.data)
        t.relayout((1, 2, 3))
        assert t.data == before

    def test_round_trip_restores_memory(self):
        rng = random.Random(5)
        for _ in range(20):
            t = rand_dense(rng, (3, 2, 4))
            original_layout = t.layout
            before = list(t.data)
            t.relayout((2, 3, 1))
            t.relayout(original_layout)
            assert t.data == before


class TestReshape:
    def test_flatten(self):
        t = iota_tensor((4, 2, 3))
        t.reshape((24,))
        assert t.shape == (24,)
        assert t.strides == (1,)
        assert t.data == list(range(24))

    def test_noop(self):
        t = iota_tensor((4, 2, 3), layout=(3, 2, 1))
        t.reshape((4, 2, 3))
        assert t.layout == (3, 2, 1)
        assert t.data == list(range(24))

    def test_same_order_keeps_memory(self):
        t = iota_tensor((4, 2, 3))
        t.reshape((2, 12, 1))
        assert t.get_memory(5) == 5
        assert t.layout == (1, 2, 3)

    def test_volume_mismatch(self):
        with pytest.raises(ValueError):
            iota_tensor((4, 2, 3)).reshape((5, 5))


class TestInterchange:
    def test_integer_round_trip_is_exact(self):
        rng = random.Random(6)
        t = rand_dense(rng, (3, 2, 2))
        blob = json.dumps(t.to_dict())
        back = DenseTensor.from_dict(json.loads(blob))
        assert back.shape == t.shape
        assert back.layout == t.layout
        assert back.offsets == t.offsets
        assert back.data == t.data

    def test_float_round_trip(self):
        t = DenseTensor.from_memory((3,), [0.1, 1 / 3, 2.5e-17])
        back = DenseTensor.from_dict(json.loads(json.dumps(t.to_dict())))
        assert back.data == t.data  # shortest round-trip decimals

    def test_malformed(self):
        with pytest.raises(ValueError):
            DenseTensor.from_dict({"shape": [2]})
        with pytest.raises(ValueError):
            DenseTensor.from_dict({"shape": [2], "data": [1, 2, 3]})

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"shape": 5, "data": [1, 2, 3, 4, 5]}, "shape"),
            ({"shape": [2.5], "data": [1, 2]}, "shape"),
            ({"shape": [True, 2], "data": [1, 2]}, "shape"),
            ({"shape": [2], "data": "ab"}, "data"),
            ({"shape": [1], "data": 5}, "data"),
            ({"shape": [2], "data": [True, False]}, "data"),
            ({"shape": [2], "data": ["a", "b"]}, "data"),
            ({"shape": [2], "data": [1, [2]]}, "data"),
            ({"shape": [2], "data": [1, 2], "layout": [1.0]}, "layout"),
            ({"shape": [2], "data": [1, 2], "layout": 1}, "layout"),
            ({"shape": [2], "data": [1, 2], "offsets": ["0"]}, "offsets"),
        ],
    )
    def test_malformed_field_types(self, obj, field):
        with pytest.raises(ValueError, match=f"^{field} must be a list of"):
            DenseTensor.from_dict(obj)

    def test_absent_or_null_layout_and_offsets_take_defaults(self):
        t = DenseTensor.from_dict(
            {"shape": [2, 1], "data": [1, 2.5], "layout": None, "offsets": None}
        )
        assert (t.layout, t.offsets, t.data) == ((1, 2), (0, 0), [1, 2.5])


class TestItem:
    def test_scalar_accessor(self):
        t = DenseTensor.from_memory((1,), [42])
        assert t.item() == 42
        with pytest.raises(ValueError):
            DenseTensor((2,)).item()


class TestValidatedOnce:
    """``relayout`` and ``reshape`` check their argument once, where the
    new meta is built, with the messages of the shared rules."""

    @pytest.mark.parametrize("method, arg, message", [
        ("relayout", (1, 2), "layout (1, 2) does not match order 3"),
        ("relayout", (0, 1, 2), "layout (0, 1, 2) is not a permutation of 1..3"),
        ("relayout", (True, 2, 3), "layout must be integers, got (True, 2, 3)"),
        ("reshape", (5, 5), "reshape to (5, 5) changes volume (25 != 24)"),
        ("reshape", (4, 3, 3), "reshape to (4, 3, 3) changes volume (36 != 24)"),
        ("reshape", (0, 24), "extents must be positive, got (0, 24)"),
        ("reshape", (), "shape must have at least one dimension"),
        ("reshape", (2.0, 12), "shape must be integers, got (2.0, 12)"),
        ("reshape", (2**40,) * 3,
         f"shape {(2**40,) * 3} overflows the 64-bit index space"),
    ])
    def test_messages(self, method, arg, message):
        t = iota_tensor((2, 3, 4), offsets=(1, -1, 0), layout=(2, 3, 1))
        with pytest.raises(ValueError) as raised:
            getattr(t, method)(arg)
        assert str(raised.value) == message
        assert (t.shape, t.layout, t.data) == ((2, 3, 4), (2, 3, 1), list(range(24)))

    @pytest.mark.parametrize("method, arg, want", [
        ("relayout", (3, 1, 2), ["_checked_shape", "_permutation"]),
        ("relayout", (2, 3, 1), ["_checked_shape", "_permutation"]),
        ("reshape", (6, 4), ["_checked_shape"]),
        ("reshape", (4, 3, 2), ["_checked_shape", "_permutation"]),
    ])
    def test_each_rule_runs_once(self, monkeypatch, method, arg, want):
        t = iota_tensor((2, 3, 4), layout=(2, 3, 1))
        calls = []

        def spy(name):
            rule = getattr(layout, name)

            def checked(*args):
                calls.append(name)
                return rule(*args)
            return checked

        for name in ("_checked_shape", "_permutation"):
            monkeypatch.setattr(layout, name, spy(name))
        getattr(t, method)(arg)
        assert calls == want


class TestSize:
    """``size`` multiplies the extents its record checked when it was made,
    and checks nothing again."""

    def test_size_calls_no_volume(self, monkeypatch):
        def no_volume(shape):
            raise AssertionError("size re-checked its shape")

        t = DenseTensor((5, 8, 3), offsets=(-1, 0, 1), layout=(2, 3, 1))
        view = t.view(Range(-1, 2, 3), Range(0, 2, 6), None)
        inner = TensorView(view, (Range(0, 1), None, Range(2, 3)))
        monkeypatch.setattr(layout, "volume", no_volume)
        monkeypatch.setattr(tensor, "volume", no_volume, raising=False)
        assert (t.size, view.size, inner.size) == (120, 36, 16)
        monkeypatch.undo()
        assert [len(v.materialize().data) for v in (view, inner)] == [36, 16]
