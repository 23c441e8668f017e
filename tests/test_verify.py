import hashlib
import itertools
import math
import random
import re
import sys
import types
from collections import Counter
from dataclasses import fields
from math import prod

import numpy as np
import pytest

from tensorlib import DenseTensor, Range, TensorView
from tensorlib import contraction, elementwise, iterators, tensor, verify, views
from tensorlib.layout import zero_indices
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
            # ttv, ttm and the times_* chains draw orders 2..max_order.
            RunConfig(max_order=1)
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

    def test_write_outside_the_view_is_caught(self, monkeypatch):
        fill = elementwise.fill

        def leaky_fill(dst, value):
            # A correct fill that also changes the first element of the
            # view's target that the view does not show.
            if not isinstance(dst, views.TensorView):
                return fill(dst, value)
            data, marker = dst.target.data, object()
            saved = data[:]
            data[:] = [marker] * len(data)
            fill(dst, value)
            outside = [j for j, x in enumerate(data) if x is marker]
            for j in outside:
                data[j] = saved[j]
            if outside:
                data[outside[0]] += 1

        monkeypatch.setattr(elementwise, "fill", leaky_fill)
        rep = run_verification(RunConfig(seed=42, trials=50, scalar_kind="int64"))
        bad = [f for f in rep.families if f.failure is not None]
        assert [f.name for f in bad] == ["fill"]
        assert bad[0].passes < 50
        failure = bad[0].failure
        assert failure["outside_view"] is True
        assert {"trial", "index", "expected", "got"} <= set(failure)
        assert int(failure["got"]) == int(failure["expected"]) + 1

    def test_one_ulp_off_fails_its_family(self, monkeypatch):
        # Comparison is exact at float64 too: a result one ulp off fails.
        accumulate = elementwise.accumulate

        def ulp_off(*args, **kwargs):
            return math.nextafter(accumulate(*args, **kwargs), math.inf)

        monkeypatch.setattr(elementwise, "accumulate", ulp_off)
        rep = run_verification(RunConfig(seed=42, trials=5, scalar_kind="float64"))
        bad = [f for f in rep.families if f.failure is not None]
        assert [(f.name, f.passes) for f in bad] == [("accumulate", 0)]
        failure = bad[0].failure
        assert float(failure["got"]) == math.nextafter(float(failure["expected"]), math.inf)

    # The kernel argument each writing family writes; every other tensor
    # argument is an operand it only reads.
    WRITTEN = {"for_each": 0, "transform_unary": 1, "transform_binary": 2, "copy": 1,
               "copy_if": 1, "fill": 0, "generate": 0, "iota": 0}
    # A wrong value for each family whose kernel returns one (default: +1).
    WRONG = {
        "extremum_element": lambda out: (out[0], out[1] + 1),
        "find_first": lambda out: (*out, 0),
        "compare_ranges": lambda out: out._replace(equal=not out.equal),
        "quantify": lambda out: not out,
    }
    # A scalar parameter or instance choice each family's context names.
    PARAMS = {"for_each": "alpha", "transform_unary": "alpha", "copy_if": "threshold",
              "fill": "value", "generate": "start", "iota": "start",
              "count_matching": "needle", "find_first": "needle",
              "quantify": "threshold", "accumulate": "init",
              "inner_product_flat": "init", "transpose": "tau", "ttv": "mode",
              "ttm": "mode", "ttt": "phi", "times_vectors": "modes",
              "times_matrices": "modes"}
    TENSOR_RESULTS = ("transpose", "ttv", "ttm", "ttt", "outer_product",
                      "times_vectors", "times_matrices")

    @pytest.mark.parametrize("name", [name for name, _ in FAMILIES])
    @pytest.mark.parametrize("kind", ["int64", "float64"])
    def test_wrong_kernel_output_is_reported_with_its_operands(
        self, monkeypatch, name, kind
    ):
        module = contraction if name in contraction.__all__ else elementwise
        written = self.WRITTEN.get(name)
        read = []

        def corrupt(out, *args):
            for k, arg in enumerate(args):
                for x in arg if isinstance(arg, list) else [arg]:
                    if k != written and isinstance(x, (DenseTensor, TensorView)):
                        read.append(verify._operand_json(x))
            if written is not None:
                return bump_first(args[written])
            if name in self.TENSOR_RESULTS:
                return bump_first(out)
            return self.WRONG.get(name, lambda out: out + 1)(out)

        corrupt_call(monkeypatch, module, name, corrupt)
        rep = run_verification(RunConfig(seed=42, trials=2, scalar_kind=kind))
        bad = [f for f in rep.families if f.failure is not None]
        assert [(f.name, f.passes) for f in bad] == [(name, 1)]
        failure = bad[0].failure
        assert failure["trial"] == 0
        assert failure["op"].startswith(name)
        assert self.PARAMS.get(name, "op") in failure
        reported = [x for v in failure.values() for x in (v if isinstance(v, list) else [v])]
        assert bool(read) == (name not in ("for_each", "fill", "generate", "iota"))
        for operand in read:
            assert {"shape", "layout", "offsets", "data"} <= set(operand)
            assert operand in reported
        # A writing family also reports its written operand as it was.
        assert ("dst_before" in failure) == (written is not None)
        if written is not None:
            assert {"shape", "layout", "offsets", "data"} <= set(failure["dst_before"])

    @pytest.mark.parametrize("name", TENSOR_RESULTS)
    def test_wrong_result_shape_is_reported(self, monkeypatch, name):
        corrupt_call(monkeypatch, contraction, name,
                     lambda out, *args: DenseTensor((*out.shape, 2)))
        rep = run_verification(RunConfig(seed=42, trials=2, scalar_kind="int64"))
        bad = [f for f in rep.families if f.failure is not None]
        assert [(f.name, f.passes) for f in bad] == [(name, 1)]
        failure = bad[0].failure
        assert failure["got_shape"] == failure["expected_shape"] + [2]
        assert {"a", "b"} & set(failure)

    def test_copy_if_failure_replays_from_src_and_dst_before(self, monkeypatch):
        # copy_if's expected values depend on its destination's contents
        # before the kernel: the report's src and dst_before rebuild them,
        # and the real kernel on those two gives the same list.
        copy_if = elementwise.copy_if
        layouts = set()
        for kind in ("int64", "float64"):
            for at in range(1, 7):
                monkeypatch.setattr(elementwise, "copy_if", copy_if)
                corrupt_call(monkeypatch, elementwise, "copy_if",
                             lambda out, src, dst, pred: bump_first(dst), at=at)
                rep = run_verification(RunConfig(seed=42, trials=at, scalar_kind=kind))
                (bad,) = [f for f in rep.families if f.failure is not None]
                failure = bad.failure
                assert (bad.name, failure["trial"]) == ("copy_if", at - 1)
                src = DenseTensor.from_dict(failure["src"])
                dst = DenseTensor.from_dict(failure["dst_before"])
                layouts.add(failure["dst_before"].get("view", False))
                threshold = failure["threshold"]
                expected = [s if s > threshold else d
                            for s, d in zip(verify.read_flat(src), verify.read_flat(dst))]
                k = sum(i * prod(dst.shape[:r]) for r, i in enumerate(failure["index"]))
                assert failure["expected"] == repr(expected[k])
                assert failure["got"] == repr(expected[k] + 1)
                copy_if(src, dst, lambda v: v > threshold)
                assert verify.read_flat(dst) == expected
        assert layouts == {False, True}  # tensors and views as destinations

    def test_every_family_calls_its_kernel_through_its_module(self, monkeypatch):
        # perfbench's tracer swaps every public kernel, in every tensorlib
        # namespace that binds it, for a wrapper; a family that bound its
        # kernel once at import would bypass it and read as no kernel time.
        calls = Counter()

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        spies = {}
        for mod in (elementwise, contraction):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    spies[fn] = spy(attr, fn)
        for modname, ns in list(sys.modules.items()):
            if modname == "tensorlib" or modname.startswith("tensorlib."):
                for attr, value in list(vars(ns).items()):
                    if isinstance(value, types.FunctionType) and value in spies:
                        monkeypatch.setattr(ns, attr, spies[value])
        for kind in ("int64", "float64"):
            cfg = RunConfig(seed=42, scalar_kind=kind)
            for name, check in FAMILIES:
                calls.clear()
                rng = random.Random(f"42:{name}:{kind}")
                assert check(rng, cfg, verify._Comparator(kind)) is None
                assert calls[name] >= 1, name

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


class TestOneCallSite:
    """The oracle calls library kernels in one place, ``_Comparator.run``,
    which turns a raise into that trial's counterexample; it sets operands
    up without them, so a wrong kernel fails its own family alone."""

    WRITTEN = TestRunVerification.WRITTEN

    @staticmethod
    def raising(monkeypatch, name, seen):
        """Make ``name``'s kernel raise when called from outside its module
        (``times_matrices`` runs ``ttm`` steps), after appending each
        tensor argument's serialization, with its position, to ``seen``."""
        module = contraction if name in contraction.__all__ else elementwise
        real = getattr(module, name)

        def broken(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == module.__name__:
                return real(*args, **kwargs)
            seen.append([(k, verify._operand_json(x)) for k, arg in enumerate(args)
                         for x in (arg if isinstance(arg, list) else [arg])
                         if isinstance(x, (DenseTensor, TensorView))])
            raise RuntimeError(f"{name} broke")

        monkeypatch.setattr(module, name, broken)

    @pytest.mark.parametrize("name", [name for name, _ in FAMILIES])
    @pytest.mark.parametrize("kind", ["int64", "float64"])
    def test_raising_kernel_fails_each_trial_with_its_instance(
        self, monkeypatch, name, kind
    ):
        check, cfg = dict(FAMILIES)[name], RunConfig(seed=42, scalar_kind=kind)
        clean, states = random.Random(f"42:{name}:{kind}"), []
        for _ in range(10):
            assert check(clean, cfg, verify._Comparator(kind)) is None
            states.append(clean.getstate())
        seen = []
        self.raising(monkeypatch, name, seen)
        rng = random.Random(f"42:{name}:{kind}")
        for state in states:
            seen.clear()
            failure = check(rng, cfg, verify._Comparator(kind))
            # Every draw comes before the first call, so the stream goes on
            # as in a clean run.
            assert rng.getstate() == state
            assert failure["op"].startswith(name)
            assert failure["error"] == f"RuntimeError: {name} broke"
            assert re.fullmatch(r"test_verify\.py:\d+", failure["where"])
            (operands,) = seen  # a family stops calling at its first failure
            assert operands
            reported = [x for v in failure.values() for x in (v if isinstance(v, list) else [v])]
            for k, operand in operands:
                if k == self.WRITTEN.get(name):
                    assert failure["dst_before"] == operand
                else:
                    assert operand in reported
            assert ("dst_before" in failure) == (name in self.WRITTEN)

    @pytest.mark.parametrize("name", [name for name, _ in FAMILIES])
    @pytest.mark.parametrize("kind", ["int64", "float64"])
    def test_raising_kernel_leaves_every_other_family_reported(
        self, monkeypatch, name, kind
    ):
        self.raising(monkeypatch, name, [])
        rep = run_verification(RunConfig(seed=42, trials=3, scalar_kind=kind))
        assert [f.name for f in rep.families] == [n for n, _ in FAMILIES]
        bad = [f for f in rep.families if f.passes < f.trials]
        assert [(f.name, f.passes) for f in bad] == [(name, 0)]
        assert bad[0].failure["trial"] == 0 and "error" in bad[0].failure
        assert all(f.failure is None for f in rep.families if f is not bad[0])

    def test_every_library_call_comes_from_run(self, monkeypatch):
        # Each call that enters elementwise or contraction from outside
        # them (their own nested calls aside) has _Comparator.run as its
        # caller: no family body calls a kernel, and no oracle plumbing
        # sets operands up through one.
        callers, depth = Counter(), [0]

        def spy(fn):
            def watched(*args, **kwargs):
                if depth[0] == 0:
                    callers[sys._getframe(1).f_code] += 1
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return watched

        spies = {}
        for mod in (elementwise, contraction):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    spies[fn] = spy(fn)
        for modname, ns in list(sys.modules.items()):
            if modname == "tensorlib" or modname.startswith("tensorlib."):
                for attr, value in list(vars(ns).items()):
                    if isinstance(value, types.FunctionType) and value in spies:
                        monkeypatch.setattr(ns, attr, spies[value])
        for kind in ("int64", "float64"):
            assert run_verification(RunConfig(seed=42, trials=20, scalar_kind=kind)).ok
        assert set(callers) == {verify._Comparator.run.__code__}
        # At least one call per trial of every family, for both kinds.
        assert sum(callers.values()) >= 2 * 20 * len(FAMILIES)

    def test_wrong_copy_fails_the_copy_family_alone(self, monkeypatch):
        copy = elementwise.copy

        def wrong_copy(src, dst):
            copy(src, dst)
            bump_first(dst)

        monkeypatch.setattr(elementwise, "copy", wrong_copy)
        for kind in ("int64", "float64"):
            rep = run_verification(RunConfig(seed=42, trials=20, scalar_kind=kind))
            bad = [(f.name, f.passes) for f in rep.families if f.failure is not None]
            assert bad == [("copy", 0)]


class TestIntDraws:
    """int64 tensor elements come from ``_randints``, which must match
    ``randint`` value for value and word for word, or every int64 replay
    and the stream pin would change."""

    @pytest.mark.parametrize("lo, hi", [(-9, 9), (0, 0), (1, 2), (0, 3), (-2, 2), (0, 31)])
    @pytest.mark.parametrize("count", [0, 1, 500])
    def test_randints_reproduces_randint(self, lo, hi, count):
        for seed in (0, 1, 42, "7:ttv:int64"):
            ours, theirs = random.Random(seed), random.Random(seed)
            want = [theirs.randint(lo, hi) for _ in range(count)]
            assert verify._randints(ours, lo, hi, count) == want
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("count", [63, 64, 65, 625, 14641])
    def test_batched_element_draws_reproduce_randint(self, count):
        # From 64 values the elements' words are drawn a batch per round.
        for seed in (0, 1, 42, "7:ttv:int64"):
            ours, theirs = random.Random(seed), random.Random(seed)
            want = [theirs.randint(-9, 9) for _ in range(count)]
            assert verify._randints(ours, -9, 9, count) == want
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("lo, hi", [(-200, 200), (0, 200), (-128, 127)])
    def test_ranges_wider_than_a_signed_byte_keep_the_loop(self, lo, hi):
        # 9 bits, or 8 that overflow a signed byte: one word per draw.
        class Recording(random.Random):
            def getrandbits(self, k):
                self.asked.append(k)
                return super().getrandbits(k)

        ours, theirs = Recording(3), random.Random(3)
        ours.asked = []
        want = [theirs.randint(lo, hi) for _ in range(100)]
        assert verify._randints(ours, lo, hi, 100) == want
        assert ours.getstate() == theirs.getstate()
        assert set(ours.asked) == {(hi - lo + 1).bit_length()}

    @pytest.mark.parametrize("count", [0, 1])
    def test_randints_rejects_an_empty_range(self, count):
        # randint raises here too; redrawing getrandbits(0) would never end.
        with pytest.raises(ValueError, match=r"\[2, 1\]"):
            verify._randints(random.Random(0), 2, 1, count)

    def test_tensor_elements_are_not_drawn_by_randint(self, monkeypatch):
        # The per-element draws in [-9, 9], the bulk of all draws, must not
        # go through randint.
        randint = random.Random.randint

        def no_element_draws(self, a, b):
            if (a, b) == (-9, 9):
                raise AssertionError("tensor elements drawn through randint")
            return randint(self, a, b)

        monkeypatch.setattr(random.Random, "randint", no_element_draws)
        t = verify._rand_tensor(random.Random(3), (4, 5, 3), "int64")
        assert len(t.data) == 60
        assert all(-9 <= x <= 9 for x in t.data)


class TestLayoutDraws:
    """Layouts and the permutations of transpose and ttt come from
    ``_rand_layout``, which must draw the permutation ``shuffle`` draws
    from the same words, or the stream pin would change."""

    @pytest.mark.parametrize("p", range(1, 7))
    def test_rand_layout_reproduces_shuffle(self, p):
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            perm = list(range(1, p + 1))
            theirs.shuffle(perm)
            assert verify._rand_layout(ours, p) == tuple(perm)
            assert ours.getstate() == theirs.getstate()


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
        # A stepped view of v, whose index box is [2, 4] x [-2, 0] x [0, 2].
        w = TensorView(v, (Range(2, 2, 4), Range(-1, 0), None))
        return [t, v, w]

    @staticmethod
    def ban_engine(monkeypatch, banned):
        """Replace both loop planners, the engine's positions, the reach
        check and the cursor door by ``banned``, in ``iterators`` and
        wherever they are bound by name."""
        for name in ("_plan", "plan_fibers", "_pair_plan", "_positions", "check_reach"):
            for module in (iterators, elementwise, contraction):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, banned)
        for module in (elementwise, contraction):
            monkeypatch.setattr(module, "_mit", banned)

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
        cases = [(x, x.shape, self.plain_box(x)) for x in operands]
        t, v, w = operands

        def oracle_calls():
            # The label oracle on the reads: a transpose of t, an outer
            # product of v and w, and a ttv and a ttm of t.
            ta = (verify.read_flat(t), t.shape, (1, 2, 3))
            tv = (verify.read_flat(v), v.shape, (4, 5, 6))
            tw = (verify.read_flat(w), w.shape, (7, 8, 9))
            return [
                verify.contract((3, 1, 2), (), ta),
                verify.contract(range(4, 10), (), tv, tw),
                verify._times(ta[0], t.shape, tw[0][:2], (2,), 3),
                verify._times(ta[0], t.shape, tw[0][:8], (2, 4), 2),
            ]

        want = oracle_calls()

        def banned(*args, **kwargs):
            raise AssertionError("the oracle used the engine's addressing")

        self.ban_engine(monkeypatch, banned)
        monkeypatch.setattr(tensor._Strided, "_key_to_memory", banned)
        monkeypatch.setattr(views, "_frame", banned)
        assert oracle_calls() == want
        cmp = verify._Comparator("int64")
        for x, shape, box in cases:
            assert read_box(x) == box
            flat = [box[i] for i in zero_indices(shape)]
            assert verify.read_flat(x) == flat
            assert cmp.check_list(flat, shape, x, {"op": "read"}) is None
            assert cmp.check_list(flat, shape, x, {"op": "read"}, x.data[:]) is None
            # The last multi-index in sorted order is also the last in
            # zero_indices order.
            last = max(box)
            wrong = flat[:-1] + [box[last] + 1]
            bad = cmp.check_list(wrong, shape, x, {"op": "read"})
            assert bad["index"] == list(last)
            assert bad["expected"] == repr(box[last] + 1)
            assert bad["got"] == repr(box[last])

    @pytest.mark.parametrize("layout", [(1, 2, 3), (2, 3, 1)])
    def test_contract_reads_in_place_without_the_engines_planners(self, monkeypatch, layout):
        # contract takes tensors and views as they are and reads them at
        # its own positions: neither planner, nor the engine's positions.
        t, v, w = self.operands(layout)
        matrix_layout = (1, 2) if layout == (1, 2, 3) else (2, 1)
        parent = DenseTensor.from_memory((6, 5), range(30), layout=matrix_layout)
        m = TensorView(parent, (Range(0, 2, 4), Range(1, 4)))  # a (3, 4) matrix
        operands = (t, v, w, m)
        lists = [(verify.read_flat(x), x.shape) for x in operands]

        def calls(t, v, w, m):
            return [
                verify.contract((3, 1, 2), (), (*t, (1, 2, 3))),
                verify.contract(range(4, 10), (), (*v, (4, 5, 6)), (*w, (7, 8, 9))),
                verify._times(t[0], t[1], m[0], m[1], 2),
            ]

        want = calls(*lists)

        def banned(*args, **kwargs):
            raise AssertionError("the oracle used the engine's addressing")

        self.ban_engine(monkeypatch, banned)
        monkeypatch.setattr(tensor._Strided, "_key_to_memory", banned)
        monkeypatch.setattr(views, "_frame", banned)
        assert calls(*[(x, x.shape) for x in operands]) == want

    @pytest.mark.parametrize("layout", [(1, 2, 3), (3, 2, 1), (2, 3, 1)])
    def test_counterexample_operands_bypass_planner_and_materialize(
        self, monkeypatch, layout
    ):
        # A tensor serializes as to_dict; a stepped view and a view of a
        # view as their materialization, plus "view": True.  Both are read
        # by the oracle's own positions, for an operand and for a write's
        # dst_before alike.
        operands = self.operands(layout)
        wanted = [operands[0].to_dict()]
        wanted += [dict(x.materialize().to_dict(), view=True) for x in operands[1:]]
        shapes = [x.shape for x in operands]

        def banned(*args, **kwargs):
            raise AssertionError("the oracle used the engine to serialize")

        self.ban_engine(monkeypatch, banned)
        monkeypatch.setattr(tensor._Strided, "_key_to_memory", banned)
        monkeypatch.setattr(views, "_frame", banned)
        monkeypatch.setattr(views.TensorView, "materialize", banned)
        cmp = verify._Comparator("int64")
        for x, shape, want in zip(operands, shapes, wanted):
            assert verify._operand_json(x) == want
            data = x.data  # the root's buffer, which v and w share
            saved = data[:]
            clobber = lambda: data.__setitem__(slice(None), [1000] * len(data))
            bad = cmp.run({"op": "write"}, verify.read_flat(x), clobber, (), shape, x)
            assert bad["got"] == "1000"
            assert bad["dst_before"] == want
            data[:] = saved

    @pytest.mark.parametrize("new_shape", [(3, 2), (6,)])
    def test_stale_view_raises(self, new_shape):
        a = DenseTensor.from_memory((2, 3), range(6))
        v = a.view(None, Range(2, 2))
        assert read_box(v) == {(0, 0): 4, (1, 0): 5}
        a.reshape(new_shape)
        with pytest.raises(IndexError, match="dimension 2"):
            read_box(v)
        with pytest.raises(IndexError, match="dimension 2"):
            verify._Comparator("int64").check_list([], (2, 1), v, {})

    @pytest.mark.parametrize("layout", [(1, 2, 3), (2, 3, 1)])
    def test_view_of_a_view_reads_like_its_materialization(self, layout):
        w = self.operands(layout)[2]
        m = w.materialize()
        assert verify.read_flat(w) == m.data
        assert read_box(w) == dict(zip(zero_indices(m.shape), m.data))

    def test_stale_view_of_a_view_raises(self, monkeypatch):
        _, v, w = self.operands((2, 3, 1))
        v.target.reshape((9, 6, 4))
        with pytest.raises(IndexError, match="dimension 2") as engine:
            w.materialize()
        # The oracle's own bounds check, not the engine's view frame.
        monkeypatch.setattr(views, "_frame", lambda *a: pytest.fail("read views._frame"))
        for read in (read_box, verify.read_flat):
            with pytest.raises(IndexError, match=re.escape(str(engine.value))):
                read(w)

    def test_write_outside_a_view_of_a_view_names_the_root_index(self):
        a = DenseTensor.from_memory((4, 4), range(16))
        w = TensorView(a.view(Range(1, 3), Range(2, 3)), (Range(0, 1), None))
        before = a.data[:]
        elementwise.fill(w, 7)
        a.data[15] += 1  # root multi-index (3, 3), outside w's window
        bad = verify._Comparator("int64").check_list([7] * 4, (2, 2), w, {}, before)
        assert bad["outside_view"] is True
        assert bad["index"] == [3, 3]
        assert (bad["expected"], bad["got"]) == ("15", "16")

    def test_wrong_view_frame_is_caught(self, monkeypatch):
        frame = views._frame

        def without_steps(ranges, meta):
            return frame(ranges, meta)._replace(strides=meta.strides)

        monkeypatch.setattr(views, "_frame", without_steps)
        rep = run_verification(RunConfig(seed=42, trials=20, scalar_kind="int64"))
        assert not rep.ok
        assert sum(f.trials - f.passes for f in rep.families) > 0


class TestGrid:
    """``verify._grid`` against a brute force over every multi-index: runs
    merge where a stride continues the run inside it, and a grid that is
    one run of nonzero stride is a ``range``."""

    @staticmethod
    def brute(gamma, strides, shape):
        indices = itertools.product(*(range(n) for n in reversed(shape)))
        return [gamma + sum(map(math.prod, zip(strides, i[::-1]))) for i in indices]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_strides_and_shapes(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            p = rng.randint(1, 5)
            shape = [rng.choice((1, 1, 2, 3, 4)) for _ in range(p)]
            strides = [rng.choice((0, 0, 1, 2, 3, 5, -1, -4)) for _ in range(p)]
            # Half the cases continue the run inside, so that runs merge.
            for r in range(1, p):
                if rng.random() < 0.5:
                    strides[r] = strides[r - 1] * shape[r - 1]
            gamma = rng.randint(-3, 40)
            got = verify._grid(gamma, strides, shape)
            assert list(got) == self.brute(gamma, strides, shape)

    @pytest.mark.parametrize(
        "gamma, strides, shape",
        [
            (0, (1, 3, 12), (3, 4, 2)),
            (7, (2, 9, 6), (3, 1, 4)),
            (5, (4, 0, 0), (1, 1, 1)),
            (2, (0, 5, 15), (1, 3, 2)),
            (9, (-2, -6), (3, 2)),
        ],
    )
    def test_one_run_is_a_range(self, gamma, strides, shape):
        got = verify._grid(gamma, strides, shape)
        assert isinstance(got, range)
        assert list(got) == self.brute(gamma, strides, shape)

    def test_several_runs_or_stride_zero_are_lists(self):
        for strides, shape in (((2, 5), (2, 3)), ((0, 1), (3, 2)), ((0,), (4,))):
            got = verify._grid(1, strides, shape)
            assert type(got) is list and got == self.brute(1, strides, shape)


class TestLabelOracle:
    """``verify.contract`` against ``numpy.einsum`` on int64 operands, where
    both are exact, so any difference is a wrong index map."""

    @staticmethod
    def operand(rng, labels, sizes, draw=lambda rng: rng.randint(-9, 9)):
        shape = tuple(sizes[l] for l in labels)
        return [draw(rng) for _ in range(prod(shape))], shape, tuple(labels)

    @staticmethod
    def einsum(out, *operands):
        letters = {}

        def word(labels):
            return "".join(letters.setdefault(l, chr(97 + len(letters))) for l in labels)

        spec = ",".join(word(labels) for _, _, labels in operands) + "->" + word(out)
        arrays = [np.array(v, dtype=np.int64).reshape(s, order="F") for v, s, _ in operands]
        return np.einsum(spec, *arrays).ravel(order="F").tolist()

    def random_case(self, rng, draw=lambda rng: rng.randint(-9, 9)):
        sizes = {l: rng.randint(1, 4) for l in range(6)}
        operands = [
            self.operand(rng, rng.sample(range(6), rng.randint(1, 4)), sizes, draw)
            for _ in range(rng.randint(1, 2))
        ]
        present = sorted({l for _, _, labels in operands for l in labels})
        out = rng.sample(present, rng.randint(0, len(present)))
        summed = [l for l in present if l not in out]
        rng.shuffle(summed)
        return sizes, out, summed, operands

    @pytest.mark.parametrize("seed", range(4))
    def test_random_label_assignments(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            sizes, out, summed, operands = self.random_case(rng)
            values, shape = verify.contract(out, summed, *operands)
            assert shape == tuple(sizes[l] for l in out)
            assert values == self.einsum(out, *operands)

    def test_transpose_outer_and_full_contraction(self):
        rng = random.Random(5)
        sizes = {1: 2, 2: 3, 3: 4, 4: 2}
        a = self.operand(rng, (1, 2, 3), sizes)
        b = self.operand(rng, (4, 2), sizes)
        c = self.operand(rng, (1, 2, 3), sizes)
        cases = [
            ((3, 1, 2), (), [a]),  # transpose
            ((1, 2, 3, 4, 5), (), [a, self.operand(rng, (4, 5), {4: 2, 5: 3})]),  # q = 0
            ((), (3, 2, 1), [a, c]),  # every label summed: one element
            ((1, 3, 4), (2,), [a, b]),
        ]
        for out, summed, operands in cases:
            values, shape = verify.contract(out, summed, *operands)
            assert len(values) == prod(shape)
            assert values == self.einsum(out, *operands)

    def test_operands_lacking_nest_labels(self):
        # The nest runs labels 1 (innermost) to 4.  Each b lacks some of
        # them and is read once, then repeated inside each label it lacks,
        # whether it comes first or second.
        rng = random.Random(13)
        sizes = {1: 2, 2: 3, 3: 2, 4: 3}
        a = self.operand(rng, (3, 1, 4, 2), sizes)
        for labels in ((2, 3, 4), (1, 3, 4), (1, 2, 4), (4, 1), (1, 2, 3), (3,)):
            b = self.operand(rng, labels, sizes)
            for operands in ([a, b], [b, a]):
                values, shape = verify.contract((1, 2, 3, 4), (), *operands)
                assert shape == (2, 3, 2, 3)
                assert values == self.einsum((1, 2, 3, 4), *operands)
                # With the two innermost labels summed.
                values, _ = verify.contract((3, 4), (2, 1), *operands)
                assert values == self.einsum((3, 4), *operands)

    def test_single_operand_with_a_summed_label(self):
        rng = random.Random(14)
        a = self.operand(rng, (1, 2, 3), {1: 3, 2: 4, 3: 2})
        for out, summed in (((1, 3), (2,)), ((2,), (1, 3)), ((), (3, 1, 2))):
            values, shape = verify.contract(out, summed, a)
            assert len(values) == prod(shape)
            assert values == self.einsum(out, a)

    @pytest.mark.parametrize("modes", [(1,), (2,), (1, 3), (1, 2, 3)])
    def test_chained_ttv_and_ttm(self, modes):
        # times_vectors and times_matrices chain ttv and ttm highest mode
        # first, as verify's times_* families do.
        rng = random.Random(len(modes))
        sizes = {1: 3, 2: 2, 3: 4, -1: 2, -2: 5, -3: 3}
        a = self.operand(rng, (1, 2, 3), sizes)
        vectors = {m: self.operand(rng, (m,), sizes) for m in modes}
        matrices = {m: self.operand(rng, (-m, m), sizes) for m in modes}
        values, shape = a[:2]
        for m in sorted(modes, reverse=True):
            values, shape = verify._times(values, shape, *vectors[m][:2], m)
        assert list(values) == self.einsum([d for d in (1, 2, 3) if d not in modes],
                                           a, *vectors.values())
        values, shape = a[:2]
        for m in sorted(modes, reverse=True):
            values, shape = verify._times(values, shape, *matrices[m][:2], m)
        assert shape == tuple(sizes[-d if d in modes else d] for d in (1, 2, 3))
        assert values == self.einsum([-d if d in modes else d for d in (1, 2, 3)],
                                     a, *matrices.values())

    def test_float_sums_run_in_nested_loop_order(self):
        # The loops the label oracle replaced: each output adds its terms
        # over the summed labels, the last fastest, from 0.  Equal bits, no
        # tolerance; ``sum`` adds as acc += term does up to Python 3.11.
        rng = random.Random(9)
        for _ in range(40):
            sizes, out, summed, operands = self.random_case(rng, lambda r: 0.5 + 1.5 * r.random())
            expected = []
            for oi in zero_indices(tuple(sizes[l] for l in out) or (1,)):
                terms = []
                for si in itertools.product(*(range(sizes[l]) for l in summed)):
                    at = dict(zip(out, oi))
                    at.update(zip(summed, si))
                    term = None
                    for values, shape, labels in operands:
                        k = 0
                        for l, n in zip(reversed(labels), reversed(shape)):
                            k = k * n + at[l]
                        term = values[k] if term is None else term * values[k]
                    terms.append(term)
                expected.append(sum(terms))
            assert verify.contract(out, summed, *operands)[0] == expected
