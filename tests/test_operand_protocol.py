"""The operand protocol: any object with ``miter()`` and ``meta`` is an
operand, and so is a raw ``MultiIterator``.

``Foreign`` is a tensor type that inherits nothing from tensorlib: a
buffer, a last-order ``TensorMeta`` and a cursor.  Every public function
that takes an operand must give the same bits on it, and on a raw cursor,
as on a ``DenseTensor`` holding the same values."""

import random

import pytest

from tensorlib import (
    DenseTensor,
    MultiIterator,
    TensorMeta,
    copy,
    emit_tensor,
    frobenius_norm,
    hopm,
    rank_one_compose,
    residual,
    tensors_equal,
    ttv,
)

SHAPE = (3, 4, 2)


class Foreign:
    """A last-order tensor type of its own, built from values in iteration
    order (dimension 1 fastest)."""

    def __init__(self, shape, values):
        self.meta = TensorMeta(shape, layout=tuple(range(len(shape), 0, -1)))
        self.data = [0.0] * self.meta.size
        index = [0] * len(shape)
        for value in values:
            self.data[sum(i * w for i, w in zip(index, self.meta.strides))] = value
            for r, n in enumerate(shape):
                index[r] += 1
                if index[r] < n:
                    break
                index[r] = 0

    def miter(self):
        return MultiIterator(self.data, 0, self.meta.strides, self.meta.shape)


def values(n, seed):
    rng = random.Random(seed)
    return [rng.uniform(-1.0, 1.0) for _ in range(n)]


def bits(xs):
    return [x.hex() for x in xs]


def state_bits(state):
    return (state.sweeps, state.converged, bits(state.l), bits(state.lambda_history),
            bits(state.residual_history), [bits(u.data) for u in state.u])


def dense_bits(t):
    return (t.shape, t.offsets, t.layout, bits(t.data))


@pytest.fixture
def same():
    """The same values as a ``DenseTensor``, a ``Foreign`` and a raw cursor."""
    vals = values(24, 3)
    dense = DenseTensor.from_memory(SHAPE, vals)
    foreign = Foreign(SHAPE, vals)
    assert foreign.data != dense.data  # the layouts differ
    return dense, foreign, foreign.miter()


def start_vectors(kind):
    make = DenseTensor.from_memory if kind is DenseTensor else Foreign
    return [make((n,), values(n, 10 + n)) for n in SHAPE]


class TestForeignType:
    def test_hopm(self, same):
        dense, foreign, _ = same
        assert state_bits(hopm(foreign)) == state_bits(hopm(dense))

    def test_hopm_with_start_vectors(self, same):
        dense, foreign, _ = same
        got = hopm(foreign, max_sweeps=4, u0=start_vectors(Foreign))
        want = hopm(dense, max_sweeps=4, u0=start_vectors(DenseTensor))
        assert state_bits(got) == state_bits(want)

    def test_residual(self, same):
        dense, foreign, _ = same
        state = hopm(dense, max_sweeps=3)
        assert residual(foreign, state).hex() == residual(dense, state).hex()

    def test_rank_one_compose(self):
        got = rank_one_compose(0.75, start_vectors(Foreign))
        want = rank_one_compose(0.75, start_vectors(DenseTensor))
        assert dense_bits(got) == dense_bits(want)

    def test_emit_tensor(self, same):
        dense, foreign, _ = same
        assert emit_tensor(foreign, "A") == emit_tensor(dense, "A")

    def test_tensors_equal(self, same):
        dense, foreign, _ = same
        assert tensors_equal(foreign, dense) and tensors_equal(dense, foreign)
        other = Foreign(SHAPE, values(24, 4))
        assert not tensors_equal(other, dense) and not tensors_equal(dense, other)
        assert not tensors_equal(Foreign((4, 3, 2), values(24, 3)), dense)

    @pytest.mark.parametrize("target", [(2,), (5, 1, 1)])
    def test_assign(self, same, target):
        # Order 1 adopts the source's last-order layout, order 3 keeps its own.
        dense, foreign, _ = same
        twin = DenseTensor.from_memory(SHAPE, foreign.data, layout=foreign.meta.layout)
        got, want = DenseTensor(target), DenseTensor(target)
        got.assign(foreign)
        want.assign(twin)
        assert dense_bits(got) == dense_bits(want)
        assert tensors_equal(got, dense)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_ttv(self, same, mode):
        dense, foreign, _ = same
        v = DenseTensor.from_memory((SHAPE[mode - 1],), values(SHAPE[mode - 1], 5))
        assert dense_bits(ttv(foreign, v, mode)) == dense_bits(ttv(dense, v, mode))
        fv = Foreign(v.shape, v.data)
        assert dense_bits(ttv(dense, fv, mode)) == dense_bits(ttv(dense, v, mode))

    def test_copy_both_ways(self, same):
        dense, foreign, _ = same
        out = DenseTensor(SHAPE)
        copy(foreign, out)
        assert bits(out.data) == bits(dense.data)
        into = Foreign(SHAPE, [0.0] * 24)
        copy(dense, into)
        assert bits(into.data) == bits(foreign.data)

    def test_frobenius_norm(self, same):
        dense, foreign, _ = same
        assert frobenius_norm(foreign).hex() == frobenius_norm(dense).hex()


class TestRawCursor:
    def test_hopm(self, same):
        dense, _, cursor = same
        assert state_bits(hopm(cursor, track_residuals=True)) == state_bits(
            hopm(dense, track_residuals=True))

    def test_emit_tensor(self, same):
        dense, _, cursor = same
        assert emit_tensor(cursor, "A") == emit_tensor(dense, "A")

    def test_tensors_equal(self, same):
        dense, _, cursor = same
        assert tensors_equal(cursor, dense) and tensors_equal(dense, cursor)
        assert not tensors_equal(Foreign(SHAPE, values(24, 4)).miter(), dense)

    def test_assign_of_another_order_takes_the_default_layout(self, same):
        dense, _, cursor = same
        t = DenseTensor((2,), offsets=(5,))
        t.assign(cursor)
        assert dense_bits(t) == dense_bits(dense)
