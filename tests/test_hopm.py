import importlib
import random
import re
import sys
import tracemalloc
from math import inf, prod, sqrt
from operator import sub

import pytest

from tensorlib import (
    DegenerateInputError,
    DenseTensor,
    HopmState,
    Range,
    copy,
    frobenius_norm,
    hopm,
    outer_product,
    rank_one_compose,
    residual,
    tensors_equal,
    times_vectors,
    transform_binary,
    ttv,
)

from conftest import four_layouts, rand_dense

# The package rebinds the name ``hopm`` to the function.
hopm_module = importlib.import_module("tensorlib.hopm")
contraction_module = importlib.import_module("tensorlib.contraction")


def unit_vector(rng, n):
    v = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    nrm = sqrt(sum(x * x for x in v))
    return DenseTensor.from_memory((n,), [x / nrm for x in v])


def random_rank_one(rng, shape, scale):
    us = [unit_vector(rng, n) for n in shape]
    return rank_one_compose(scale, us), us


class TestHopm:
    def test_exact_rank_one_recovery(self):
        rng = random.Random(0)
        a, _ = random_rank_one(rng, (3, 4, 2), 3.0)
        state = hopm(a, max_sweeps=50)
        assert state.converged
        assert abs(state.scale - 3.0) < 1e-10
        assert residual(a, state) < 1e-10

    def test_recovered_vectors_match_up_to_sign(self):
        rng = random.Random(1)
        a, us = random_rank_one(rng, (4, 3), 2.0)
        state = hopm(a)
        for got, want in zip(state.u, us):
            dot = sum(x * y for x, y in zip(got.data, want.data))
            assert abs(abs(dot) - 1.0) < 1e-10

    def test_order_one_is_normalization(self):
        a = DenseTensor.from_memory((3,), [3.0, 0.0, 4.0])
        state = hopm(a)
        assert state.l[0] == 5.0
        assert state.u[0].data == [0.6, 0.0, 0.8]

    def test_zero_tensor_degenerates_immediately(self):
        with pytest.raises(DegenerateInputError) as err:
            hopm(DenseTensor((2, 3)))
        assert err.value.sweep == 1 and err.value.mode == 1

    @pytest.mark.parametrize(
        "data", [[1.0, float("nan")], [float("inf"), 1.0], [1.5e308, 1.5e308]]
    )
    def test_non_finite_norm_degenerates_immediately(self, data):
        # The last case is finite data whose norm overflows.
        with pytest.raises(DegenerateInputError) as err:
            hopm(DenseTensor.from_memory((2, 1), data))
        assert err.value.sweep == 1 and err.value.mode == 1
        assert "non-finite" in str(err.value)

    @pytest.mark.parametrize(
        "shape, data, scale",
        [((2, 1), [1e308, 1e308], 1e308 * sqrt(2)), ((2, 2), [1e-200] * 4, 2e-200)],
    )
    def test_norms_near_the_float_limits_solve(self, shape, data, scale):
        # Squares of these elements overflow or underflow; their norms do not.
        state = hopm(DenseTensor.from_memory(shape, data))
        assert state.converged
        assert state.scale == pytest.approx(scale, rel=1e-15)
        assert state.u[0].data == pytest.approx([2 ** -0.5] * 2)

    def test_unit_norm_after_every_sweep(self):
        rng = random.Random(2)
        shape = (3, 3, 2)
        a = DenseTensor(shape)
        a.data = [rng.uniform(-1, 1) for _ in range(a.size)]
        state = hopm(a, max_sweeps=10, tol=0.0)
        for u in state.u:
            assert abs(frobenius_norm(u) - 1.0) < 1e-12

    def test_residual_monotone_on_random_input(self):
        rng = random.Random(3)
        for _ in range(5):
            shape = tuple(rng.randint(2, 4) for _ in range(rng.randint(2, 3)))
            a = DenseTensor(shape)
            a.data = [rng.uniform(-1, 1) for _ in range(a.size)]
            state = hopm(a, max_sweeps=20, tol=0.0, track_residuals=True)
            hist = state.residual_history
            assert all(b <= prev + 1e-10 for prev, b in zip(hist, hist[1:]))

    def test_per_mode_norms_agree_at_convergence(self):
        rng = random.Random(4)
        a, _ = random_rank_one(rng, (3, 2, 4), 1.5)
        state = hopm(a)
        assert max(state.l) - min(state.l) < 1e-10

    def test_custom_start_vectors(self):
        rng = random.Random(5)
        a, us = random_rank_one(rng, (3, 3), 2.5)
        state = hopm(a, u0=us)
        assert state.converged and abs(state.scale - 2.5) < 1e-10

    def test_view_start_vectors(self):
        rng = random.Random(11)
        a = DenseTensor((2, 3))
        a.data = [rng.uniform(-1, 1) for _ in range(a.size)]
        t = DenseTensor.from_memory((4,), [9.0, 1.0, 9.0, 2.0])
        w = DenseTensor.from_memory((3,), [1.0, -2.0, 0.5])
        got = hopm(a, max_sweeps=3, tol=0.0, u0=[t.view(Range(1, 2, 3)), w])
        dense = DenseTensor.from_memory((2,), [1.0, 2.0])
        want = hopm(a, max_sweeps=3, tol=0.0, u0=[dense, w])
        assert hex_record(got) == hex_record(want)
        assert t.data == [9.0, 1.0, 9.0, 2.0] and w.data == [1.0, -2.0, 0.5]

    def test_start_vector_validation(self):
        a = DenseTensor((3, 2), fill_value=1.0)
        with pytest.raises(ValueError):
            hopm(a, u0=[DenseTensor((3,), fill_value=1.0)])
        with pytest.raises(ValueError):
            hopm(a, u0=[DenseTensor((3,)), DenseTensor((2,), fill_value=1.0)])
        with pytest.raises(ValueError):
            hopm(a, max_sweeps=0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda a: hopm(a, u0=[DenseTensor((3,), fill_value=1.0), DenseTensor((4,))]),
             "start vector 2 must have shape (2,), got (4,)"),
            (lambda a: hopm(a, u0=[DenseTensor((3, 1)), DenseTensor((2,))]),
             "start vector 1 must have shape (3,), got (3, 1)"),
            (lambda a: rank_one_compose(1.0, []), "need at least one vector"),
        ],
        ids=["start-vector-length", "start-vector-order", "compose-no-vectors"],
    )
    def test_input_check_message(self, call, message):
        a = DenseTensor((3, 2), fill_value=1.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            call(a)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), -inf])
    def test_negative_or_nan_tol_rejected(self, tol):
        a = DenseTensor.from_memory((2, 2), [1.0, 2.0, 3.0, 4.5])
        with pytest.raises(ValueError, match="tol must be >= 0"):
            hopm(a, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, inf])
    def test_zero_and_infinite_tol_accepted(self, tol):
        a = DenseTensor.from_memory((2, 2), [1.0, 2.0, 3.0, 4.5])
        state = hopm(a, max_sweeps=4, tol=tol)
        assert state.sweeps == (4 if tol == 0.0 else 2)

    def test_sweep_limit_reported(self):
        rng = random.Random(6)
        a = DenseTensor((3, 3, 3))
        a.data = [rng.uniform(-1, 1) for _ in range(a.size)]
        state = hopm(a, max_sweeps=1)
        assert state.sweeps == 1 and not state.converged


class TestRankOneCompose:
    def test_basis_vectors_single_spike(self):
        e1 = DenseTensor.from_memory((3,), [1.0, 0.0, 0.0])
        e2 = DenseTensor.from_memory((2,), [1.0, 0.0])
        b = rank_one_compose(1.0, [e1, e2])
        assert b[0, 0] == 1.0
        assert sum(abs(x) for x in b.data) == 1.0

    def test_norm_is_scale_for_unit_vectors(self):
        rng = random.Random(7)
        us = [unit_vector(rng, n) for n in (3, 4, 2)]
        b = rank_one_compose(2.25, us)
        assert abs(frobenius_norm(b) - 2.25) < 1e-12

    def test_view_vectors(self):
        # A view's buffer is its target's: its elements are read through
        # its cursor, not from ``data``.
        t = DenseTensor.from_memory((4,), [1.0, 2.0, 3.0, 4.0])
        w = DenseTensor.from_memory((2,), [0.5, -1.0])
        b = rank_one_compose(1.5, [t.view(Range(1, 2, 3)), w])
        want = rank_one_compose(1.5, [DenseTensor.from_memory((2,), [2.0, 4.0]), w])
        assert b.shape == (2, 2) and b.data == want.data

    def test_matches_chained_outer_products(self):
        rng = random.Random(8)
        us = [unit_vector(rng, n) for n in (2, 3, 2)]
        direct = rank_one_compose(3.0, us)
        scaled_first = DenseTensor.from_memory(
            us[0].shape, [3.0 * x for x in us[0].data]
        )
        chained = outer_product(outer_product(scaled_first, us[1]), us[2])
        assert tensors_equal(direct, chained)


class TestVectorsOnly:
    """``rank_one_compose`` and ``residual`` take order-1 vectors, as
    ``hopm`` takes its start vectors: a matrix is not read as its elements."""

    MATRICES = {
        "tensor": lambda: DenseTensor((2, 2), fill_value=1.0),
        "view": lambda: DenseTensor((3, 3), fill_value=1.0).view(Range(0, 1), Range(1, 2)),
        "column": lambda: DenseTensor((4, 1), fill_value=1.0),
    }

    @pytest.mark.parametrize("kind", MATRICES)
    @pytest.mark.parametrize("at", [0, 1])
    def test_compose_rejects_a_matrix(self, kind, at):
        vectors = [DenseTensor((3,), fill_value=1.0)]
        vectors.insert(at, self.MATRICES[kind]())
        message = f"vector {at + 1} must have order 1, got shape {vectors[at].shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rank_one_compose(2.0, vectors)

    @pytest.mark.parametrize("kind", MATRICES)
    @pytest.mark.parametrize("at", [0, 1])
    def test_residual_rejects_a_matrix(self, kind, at):
        u = [DenseTensor((3,), fill_value=1.0)]
        u.insert(at, self.MATRICES[kind]())
        a = DenseTensor(tuple(v.size for v in u), fill_value=1.0)
        state = HopmState(u=u, l=[1.0, 1.0], sweeps=1, converged=True)
        message = f"vector {at + 1} must have order 1, got shape {u[at].shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            residual(a, state)


class TestResidual:
    def test_exact_fit_is_tiny(self):
        rng = random.Random(9)
        a, _ = random_rank_one(rng, (4, 2, 3), 4.5)
        state = hopm(a)
        assert residual(a, state) < 1e-10

    def test_zero_scale_leaves_norm(self):
        rng = random.Random(10)
        a = DenseTensor((3, 2))
        a.data = [rng.uniform(-1, 1) for _ in range(a.size)]
        us = [unit_vector(rng, n) for n in a.shape]
        state = HopmState(u=us, l=[0.0, 0.0], sweeps=0, converged=False)
        assert abs(residual(a, state) - frobenius_norm(a)) < 1e-12

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_bits_of_the_three_cursor_formula(self, p):
        # The residual once ran a joint transform_binary(a, diff, diff, sub)
        # pass; one pass over a's elements in iteration order gives each
        # a - c, and so the norm, with the same bits.
        rng = random.Random(40 + p)
        shape = (4, 3, 2, 3)[:p]
        values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3) for _ in range(prod(shape))]
        for a in four_layouts(shape, values):
            state = hopm(a, max_sweeps=2)
            diff = rank_one_compose(state.l[-1], state.u)
            transform_binary(a, diff, diff, sub)
            assert residual(a, state).hex() == frobenius_norm(diff).hex()
            assert residual(a, state).hex() == residual(four_layouts(shape, values)[0], state).hex()

    def test_peak_memory_holds_one_difference_per_element(self):
        # The differences are the one n^3 list: no composed tensor beside it.
        rng = random.Random(12)
        shape = (32, 32, 32)
        a = DenseTensor.from_memory(shape, [rng.uniform(-1, 1) for _ in range(32 ** 3)])
        state = HopmState(u=[unit_vector(rng, n) for n in shape], l=[1.0] * 3,
                          sweeps=1, converged=False)
        buffer = sys.getsizeof(a.data) + sum(map(sys.getsizeof, a.data))
        tracemalloc.start()
        try:
            residual(a, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * buffer

    def test_shape_mismatch_raises(self):
        rng = random.Random(11)
        a = rand_dense(rng, (3, 2), kind="float64")
        state = HopmState(u=[unit_vector(rng, 3), unit_vector(rng, 3)], l=[1.0, 1.0],
                          sweeps=1, converged=False)
        with pytest.raises(ValueError, match="shape mismatch"):
            residual(a, state)


# -- prefix reuse -----------------------------------------------------------------


def reference_hopm(a, max_sweeps, tol, track_residuals):
    """The power method with every mode contracting the full tensor."""
    p = a.order
    u = [DenseTensor.from_memory((n,), [n ** -0.5] * n) for n in a.shape]
    l = [0.0] * p
    state = HopmState(u=u, l=l, sweeps=0, converged=False)
    previous = None
    for sweep in range(1, max_sweeps + 1):
        for r in range(p):
            w = times_vectors(a, u, skip=r + 1)
            norm = frobenius_norm(w)
            l[r] = norm
            u[r] = DenseTensor.from_memory(w.shape, [x / norm for x in w.data])
        state.sweeps = sweep
        state.lambda_history.append(l[-1])
        if track_residuals:
            state.residual_history.append(residual(a, state))
        if previous is not None and abs(l[-1] - previous) < tol:
            state.converged = True
            break
        previous = l[-1]
    return state


def key_mode_reference(a, max_sweeps, tol):
    """The power method contracting ``a`` afresh for every update: first
    the key mode k (the mode updated just before the sweep last reached k,
    mode p at the start), then the other modes highest first."""
    p = a.order
    u = [DenseTensor.from_memory((n,), [n ** -0.5] * n) for n in a.shape]
    l = [0.0] * p
    state = HopmState(u=u, l=l, sweeps=0, converged=False)
    key = p
    previous = None
    for sweep in range(1, max_sweeps + 1):
        for r in range(1, p + 1):
            if r == key:
                key = r - 1 or p
            if p == 1:
                w = DenseTensor(a.shape)
                copy(a, w)
            else:
                w = ttv(a, u[key - 1], key)
            # Contracting mode m of ``a`` leaves the lower modes in place.
            for m in range(p, 0, -1):
                if m not in (r, key):
                    w = ttv(w, u[m - 1], m - (m > key))
            norm = frobenius_norm(w)
            l[r - 1] = norm
            u[r - 1] = DenseTensor.from_memory(w.shape, [x / norm for x in w.data])
        state.sweeps = sweep
        state.lambda_history.append(l[-1])
        state.residual_history.append(residual(a, state))
        if previous is not None and abs(l[-1] - previous) < tol:
            state.converged = True
            break
        previous = l[-1]
    return state


def signed_operand(rng, shape, layout):
    """Signed random data at first-order layout, at a random layout with
    offsets, or as a view stepping by 2 through every dimension of such a
    tensor."""
    if layout == "first":
        t = DenseTensor(shape)
    elif layout == "random":
        t = rand_dense(rng, shape)
    else:
        t = rand_dense(rng, tuple(2 * n for n in shape))
    t.data = [rng.uniform(-1.0, 1.0) for _ in range(t.size)]
    if layout != "view":
        return t
    ranges = [Range(o, 2, o + 2 * n - 2) for o, n in zip(t.offsets, shape)]
    return t.view(*ranges)


def hex_record(state):
    return (
        [x.hex() for x in state.l],
        [[x.hex() for x in v.data] for v in state.u],
        [x.hex() for x in state.lambda_history],
        [x.hex() for x in state.residual_history],
        state.sweeps,
        state.converged,
    )


class TestPrefixReuse:
    @pytest.mark.parametrize("layout", ["first", "random", "view"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_bit_identical_to_full_contractions(self, p, layout):
        # Sweep 1 runs the full-contraction chains; later sweeps contract
        # the key mode first (see key_mode_reference).
        rng = random.Random(100 * p + len(layout))
        shape = tuple(rng.randint(2, 4) for _ in range(p))
        a = signed_operand(rng, shape, layout)
        got = hopm(a, max_sweeps=1, tol=0.0, track_residuals=True)
        want = reference_hopm(a, 1, 0.0, track_residuals=True)
        assert hex_record(got) == hex_record(want)
        assert residual(a, got).hex() == residual(a, want).hex()

    @pytest.mark.parametrize("layout", ["first", "random", "view"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_bit_identical_to_key_mode_reference(self, p, layout):
        rng = random.Random(100 * p + len(layout))
        shape = tuple(rng.randint(2, 4) for _ in range(p))
        a = signed_operand(rng, shape, layout)
        for max_sweeps, tol in ((4, 0.0), (50, 1e-10)):
            got = hopm(a, max_sweeps=max_sweeps, tol=tol, track_residuals=True)
            want = key_mode_reference(a, max_sweeps, tol)
            assert hex_record(got) == hex_record(want)
            assert residual(a, got).hex() == residual(a, want).hex()

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_two_full_tensor_ttv_calls_per_sweep(self, monkeypatch, p):
        """At most two per sweep: one full-tensor ttv serves p - 1 mode
        updates, so k sweeps take ceil(k p / (p - 1)) of them."""
        full, modes = [0], [0]
        original_ttv = contraction_module.ttv

        def counting_ttv(t, b, mode):
            full[0] += t.order == p
            return original_ttv(t, b, mode)

        def counting_times_vectors(*args, **kwargs):
            modes[0] += 1
            return times_vectors(*args, **kwargs)

        monkeypatch.setattr(contraction_module, "ttv", counting_ttv)
        monkeypatch.setattr(hopm_module, "ttv", counting_ttv, raising=False)
        monkeypatch.setattr(hopm_module, "times_vectors", counting_times_vectors)
        a = signed_operand(random.Random(p), (3,) * p, "random")
        for k in range(1, 5):
            full[0] = modes[0] = 0
            state = hopm(a, max_sweeps=k, tol=0.0)
            assert state.sweeps == k
            assert full[0] == -(-k * p // (p - 1))
            assert modes[0] == p * k
