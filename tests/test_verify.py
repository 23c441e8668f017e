import hashlib
import itertools
import random
from dataclasses import fields

import pytest

from tensorlib import DenseTensor, Range
from tensorlib import contraction, elementwise, iterators, tensor, verify, views
from tensorlib.verify import FAMILIES, RunConfig, read_box, run_verification

from conftest import bump_first, corrupt_call


class TestRunConfig:
    def test_fields(self):
        names = [f.name for f in fields(RunConfig)]
        assert names == ["seed", "trials", "max_order", "max_extent", "scalar_kind"]

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(trials=0)
        with pytest.raises(ValueError):
            RunConfig(max_order=7)
        with pytest.raises(ValueError):
            RunConfig(max_extent=0)
        with pytest.raises(ValueError):
            RunConfig(scalar_kind="float32")


class TestRunVerification:
    def test_family_coverage(self):
        assert len(FAMILIES) >= 10

    def test_int64_small_run_passes(self):
        rep = run_verification(RunConfig(seed=7, trials=10, scalar_kind="int64"))
        assert rep.ok
        assert all(f.passes == f.trials == 10 for f in rep.families)

    def test_float64_small_run_passes(self):
        rep = run_verification(RunConfig(seed=7, trials=10, scalar_kind="float64"))
        assert rep.ok

    def test_single_trial(self):
        rep = run_verification(RunConfig(seed=1, trials=1))
        assert rep.ok

    def test_report_is_deterministic(self):
        cfg = dict(seed=42, trials=5, scalar_kind="float64")
        a = run_verification(RunConfig(**cfg)).to_text()
        b = run_verification(RunConfig(**cfg)).to_text()
        assert a == b

    def test_wrong_fill_is_caught(self, monkeypatch):
        corrupt_call(
            monkeypatch, elementwise, "fill", lambda out, dst, v: bump_first(dst), at=2
        )
        rep = run_verification(RunConfig(seed=42, trials=3, scalar_kind="int64"))
        assert not rep.ok
        bad = [f for f in rep.families if f.failure is not None]
        assert [f.name for f in bad] == ["fill"]
        assert bad[0].passes == 2 and bad[0].trials == 3
        assert bad[0].failure["trial"] == 1
        assert set(bad[0].failure["index"]) == {0}
        assert int(bad[0].failure["got"]) == int(bad[0].failure["expected"]) + 1

    @pytest.mark.parametrize(
        "module, name, operands",
        [
            (contraction, "transpose", ["a"]),
            (contraction, "ttv", ["a", "b"]),
            (contraction, "ttt", ["a", "b"]),
            (elementwise, "transform_binary", ["a"]),
        ],
    )
    @pytest.mark.parametrize("kind", ["int64", "float64"])
    def test_wrong_kernel_output_is_reported_with_its_operands(
        self, monkeypatch, module, name, operands, kind
    ):
        def corrupt(out, *args):
            bump_first(args[2] if name == "transform_binary" else out)

        corrupt_call(monkeypatch, module, name, corrupt)
        rep = run_verification(RunConfig(seed=42, trials=2, scalar_kind=kind))
        bad = [f for f in rep.families if f.failure is not None]
        assert [(f.name, f.passes) for f in bad] == [(name, 1)]
        failure = bad[0].failure
        assert failure["trial"] == 0
        for key in operands:
            assert {"shape", "layout", "offsets", "data"} <= set(failure[key])

    def test_passing_run_serializes_no_operand(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "_operand_json", calls.append)
        for kind in ("float64", "int64"):
            assert run_verification(RunConfig(seed=42, trials=20, scalar_kind=kind)).ok
        assert calls == []

    def test_random_streams_are_pinned(self):
        # Passing reports show only counts, so this pin is what notices a
        # change to the draws: it would change which instances a seed runs,
        # for `tensorlib verify --seed` replays and the benchmark alike.
        digest = hashlib.sha256()
        for kind in ("float64", "int64"):
            cfg = RunConfig(seed=42, scalar_kind=kind)
            for name, check in FAMILIES:
                rng = random.Random(f"42:{name}:{kind}")
                cmp = verify._Comparator(kind)
                for _ in range(20):
                    check(rng, cfg, cmp)
                digest.update(repr(rng.getstate()).encode())
        assert digest.hexdigest() == (
            "b2b32141816c0ef0b785e6b0322662a1e1b4c23d27b5d5be3a42357dce973c52"
        )

    def test_json_object_shape(self):
        rep = run_verification(RunConfig(seed=3, trials=2))
        obj = rep.to_json_obj()
        assert obj["ok"] is True
        assert len(obj["families"]) == len(FAMILIES)
        assert {"name", "trials", "passes", "failure"} <= set(obj["families"][0])


class TestOracleReads:
    """The oracle reads operands by its own stride arithmetic, so it sees
    the right elements even when the engine's planner or addressing core is
    broken, and a broken view frame shows up as failures."""

    @staticmethod
    def operands(layout):
        rng = random.Random(5)
        t = DenseTensor((3, 4, 2), (-1, 2, 1), layout)
        t.data = [rng.randint(-99, 99) for _ in range(t.size)]
        parent = DenseTensor((6, 9, 4), (2, -2, 0), layout)
        parent.data = [rng.randint(-99, 99) for _ in range(parent.size)]
        v = parent.view(Range(3, 2, 7), Range(-1, 3, 5), Range(1, 1, 3))
        return [t, v]

    @staticmethod
    def plain_box(x):
        """Zero-based multi-index -> element, by plain element access."""
        o = x.offsets
        return {
            i: x[tuple(a + b for a, b in zip(i, o))]
            for i in itertools.product(*(range(n) for n in x.shape))
        }

    @pytest.mark.parametrize("layout", [(1, 2, 3), (3, 2, 1), (2, 3, 1)])
    def test_reads_bypass_planner_and_element_access(self, monkeypatch, layout):
        operands = self.operands(layout)
        expected = [self.plain_box(x) for x in operands]

        def banned(*args, **kwargs):
            raise AssertionError("the oracle used the engine's addressing")

        monkeypatch.setattr(iterators, "_plan", banned)
        monkeypatch.setattr(iterators, "plan_fibers", banned)
        monkeypatch.setattr(iterators, "check_reach", banned)
        monkeypatch.setattr(tensor._Strided, "_key_to_memory", banned)
        cmp = verify._Comparator("int64")
        for x, box in zip(operands, expected):
            assert read_box(x) == box
            assert cmp.check_box(box, x.shape, x, {"op": "read"}) is None
            last = max(box)
            wrong = dict(box)
            wrong[last] = box[last] + 1
            bad = cmp.check_box(wrong, x.shape, x, {"op": "read"})
            assert bad["index"] == list(last)
            assert bad["expected"] == repr(box[last] + 1)
            assert bad["got"] == repr(box[last])

    @pytest.mark.parametrize("new_shape", [(3, 2), (6,)])
    def test_stale_view_raises(self, new_shape):
        a = DenseTensor.from_memory((2, 3), range(6))
        v = a.view(None, Range(2, 2))
        assert read_box(v) == {(0, 0): 4, (1, 0): 5}
        a.reshape(new_shape)
        with pytest.raises(IndexError, match="dimension 2"):
            read_box(v)
        with pytest.raises(IndexError, match="dimension 2"):
            verify._Comparator("int64").check_box({}, (2, 1), v, {})

    def test_wrong_view_frame_is_caught(self, monkeypatch):
        frame = views._frame

        def without_steps(ranges, meta):
            return frame(ranges, meta)._replace(strides=meta.strides)

        monkeypatch.setattr(views, "_frame", without_steps)
        rep = run_verification(RunConfig(seed=42, trials=20, scalar_kind="int64"))
        assert not rep.ok
        assert sum(f.trials - f.passes for f in rep.families) > 0
