"""The stride rule has one home, ``TensorMeta``: ``compute_strides`` reads
it and so obeys every tensor's shape and layout rules, and the oracle
derives a tensor's strides with a loop of its own, so a wrong stride in
the library cannot also corrupt the oracle's expected values.  The
extent functions ``volume`` and ``zero_indices`` take the integer rule:
nonnegative integers of any order."""

import numpy as np
import pytest

from tensorlib import DenseTensor, TensorMeta, compute_strides, layout, verify
from tensorlib import volume, zero_indices
from tensorlib.verify import RunConfig, run_verification


class TestComputeStridesRules:
    def test_layout_of_the_shape_in_another_order(self):
        # w_2 = 1, w_3 = n_2 = 2, w_1 = n_2 * n_3 = 6.
        assert compute_strides((4, 2, 3), (2, 3, 1)) == (6, 1, 2)

    @pytest.mark.parametrize(
        "shape, perm, message",
        [
            ((2, 3), (1, 1), "layout (1, 1) is not a permutation of 1..2"),
            ((2, 3), (0, 2), "layout (0, 2) is not a permutation of 1..2"),
            ((2, 3), (True, 2), "layout must be integers, got (True, 2)"),
            ((2, 3), (1.5, 2), "layout must be integers, got (1.5, 2)"),
            ((2.5, 3), (1, 2), "shape must be integers, got (2.5, 3)"),
            ((2, 0), (1, 2), "extents must be positive, got (2, 0)"),
            ((2, 3), (1, 2, 3), "layout (1, 2, 3) does not match order 2"),
        ],
    )
    def test_bad_arguments_raise_as_a_tensor_does(self, shape, perm, message):
        with pytest.raises(ValueError) as strides:
            compute_strides(shape, perm)
        assert str(strides.value) == message
        with pytest.raises(ValueError) as meta:
            TensorMeta(shape, layout=perm)
        assert str(meta.value) == message

    def test_numpy_integers_pass(self):
        shape, perm = np.array([4, 2, 3]), np.array([3, 2, 1])
        assert compute_strides(shape, perm) == (6, 3, 1)


class TestOracleStrides:
    """The oracle's reads of a tensor do not go through the library's
    stride rule."""

    @staticmethod
    def plain_box(x):
        return [
            x[tuple(i + o for i, o in zip(index, x.offsets))]
            for index in zero_indices(x.shape)
        ]

    @staticmethod
    def tensors():
        out = []
        for perm in [(3, 2, 1), (2, 3, 1)]:
            t = DenseTensor((4, 2, 3), offsets=(1, -1, 0), layout=perm)
            t.data = [k * 7 % 24 for k in range(24)]
            out.append(t)
        return out

    def test_reads_survive_a_wrong_compute_strides(self, monkeypatch):
        cases = [(t, self.plain_box(t)) for t in self.tensors()]

        def wrong(shape, perm):
            return tuple(range(1, len(shape) + 1))

        monkeypatch.setattr(layout, "compute_strides", wrong)
        monkeypatch.setattr(verify, "compute_strides", wrong, raising=False)
        for t, box in cases:
            assert verify.read_flat(t) == box

    def test_reads_ignore_the_meta_strides(self):
        cases = [(t, self.plain_box(t)) for t in self.tensors()]
        for t, box in cases:
            layout._set_strides(t.meta, (1, 1, 1))
            assert verify.read_flat(t) == box

    def test_a_wrong_stride_loop_fails_verify(self, monkeypatch):
        # TensorMeta's loop reading layout[q - 1] where it reads q: a
        # last-order tensor gets first-order strides.
        store = layout._set_strides

        def mutant(meta, strides):
            wrong, running = [0] * len(meta.shape), 1
            for q in meta.layout:
                d = meta.layout[q - 1]
                wrong[d - 1] = running
                running *= meta.shape[d - 1]
            store(meta, tuple(wrong))

        monkeypatch.setattr(layout, "_set_strides", mutant)
        t = DenseTensor.from_memory((4, 2, 3), range(24), layout=(2, 3, 1))
        assert t.strides == (3, 12, 1)
        assert t[1, 0, 0] == 3  # element 6 under the stride rule
        rep = run_verification(RunConfig(seed=42, trials=10, scalar_kind="int64"))
        assert not rep.ok


class TestExtentRule:
    @pytest.mark.parametrize(
        "shape, message",
        [
            ((-2, 3), "shape extents must be nonnegative, got (-2, 3)"),
            ((-1, 2), "shape extents must be nonnegative, got (-1, 2)"),
            ((2.5, 2), "shape must be integers, got (2.5, 2)"),
            ((2.0, 2), "shape must be integers, got (2.0, 2)"),
            ((True, 3), "shape must be integers, got (True, 3)"),
            ((True, 2), "shape must be integers, got (True, 2)"),
        ],
    )
    def test_volume_and_zero_indices_reject(self, shape, message):
        with pytest.raises(ValueError) as vol:
            volume(shape)
        assert str(vol.value) == message
        with pytest.raises(ValueError) as walk:
            list(zero_indices(shape))
        assert str(walk.value) == message

    def test_cursor_extents_stay_legal(self):
        assert volume(()) == 1
        assert list(zero_indices(())) == [()]
        assert volume((0, 3)) == 0
        assert list(zero_indices((0, 3))) == []
        assert volume([np.int64(2), 3]) == 6
        assert list(zero_indices((np.int64(2), 1))) == [(0, 0), (1, 0)]
