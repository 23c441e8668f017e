import importlib
import itertools
import random
from math import prod, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorlib import (
    ContractionSpec,
    DenseTensor,
    MultiIterator,
    Range,
    copy,
    frobenius_norm,
    inner_product_tensors,
    outer_product,
    reduce_ttm_to_ttt,
    reduce_ttv_to_ttt,
    tensors_equal,
    times_matrices,
    times_vectors,
    transpose,
    ttm,
    ttt,
    ttv,
)

from conftest import rand_dense, rand_layout, rand_offsets, rand_operand, read_box

contraction = importlib.import_module("tensorlib.contraction")
iterators = importlib.import_module("tensorlib.iterators")


def identity_matrix(n):
    m = DenseTensor((n, n))
    for i in range(n):
        m[i, i] = 1
    return m


def oracle_ttv(box, shape, bvals, m):
    out = {}
    for i in itertools.product(*[range(n) for n in shape[: m - 1] + shape[m:]]):
        out[i] = sum(
            box[i[: m - 1] + (k,) + i[m - 1 :]] * bvals[k]
            for k in range(shape[m - 1])
        )
    return out


class TestTranspose:
    def test_matrix(self):
        a = rand_dense(random.Random(0), (2, 3))
        c = transpose(a, (2, 1))
        assert c.shape == (3, 2)
        box = read_box(a)
        assert all(read_box(c)[(j, i)] == box[(i, j)] for i in range(2) for j in range(3))

    def test_identity_permutation(self):
        a = rand_dense(random.Random(1), (2, 3, 2))
        assert tensors_equal(transpose(a, (1, 2, 3)), a)

    def test_random_order_four(self):
        rng = random.Random(2)
        for _ in range(15):
            shape = tuple(rng.randint(1, 3) for _ in range(4))
            a = rand_operand(rng, shape)
            tau = list(range(1, 5))
            rng.shuffle(tau)
            c = transpose(a, tau)
            box = read_box(a)
            got = read_box(c)
            for ic in got:
                ia = [0] * 4
                for r, t in enumerate(tau):
                    ia[t - 1] = ic[r]
                assert got[ic] == box[tuple(ia)]

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            transpose(DenseTensor((2, 2)), (1, 1))


class TestTtv:
    def test_identity_row_sums(self):
        c = ttv(identity_matrix(2), DenseTensor((2,), fill_value=1), 2)
        assert c.shape == (2,) and c.data == [1, 1]

    def test_counting(self):
        a = DenseTensor((2, 3, 2), fill_value=1)
        b = DenseTensor((3,), fill_value=1)
        c = ttv(a, b, 2)
        assert c.shape == (2, 2) and c.data == [3] * 4

    def test_random_matches_oracle_all_modes(self):
        rng = random.Random(3)
        for _ in range(40):
            p = rng.randint(2, 4)
            shape = tuple(rng.randint(1, 4) for _ in range(p))
            m = rng.randint(1, p)
            a = rand_operand(rng, shape)
            b = rand_operand(rng, (shape[m - 1],))
            c = ttv(a, b, m)
            bvals = [read_box(b)[(k,)] for k in range(shape[m - 1])]
            expected = oracle_ttv(read_box(a), shape, bvals, m)
            assert read_box(c) == expected

    def test_column_vector_accepted(self):
        a = rand_dense(random.Random(4), (3, 4))
        col = DenseTensor((4, 1))
        flat = DenseTensor((4,))
        for k in range(4):
            col[k, 0] = k + 1
            flat[k] = k + 1
        assert tensors_equal(ttv(a, col, 2), ttv(a, flat, 2))

    def test_errors(self):
        a = DenseTensor((3, 4))
        with pytest.raises(ValueError):
            ttv(a, DenseTensor((4,)), 3)
        with pytest.raises(ValueError):
            ttv(a, DenseTensor((5,)), 2)
        with pytest.raises(ValueError):
            ttv(DenseTensor((4,)), DenseTensor((4,)), 1)


class TestTtm:
    def test_identity_matrix(self):
        rng = random.Random(5)
        for m in (1, 2, 3):
            a = rand_dense(rng, (3, 4, 2))
            c = ttm(a, identity_matrix(a.shape[m - 1]), m)
            assert tensors_equal(c, a)

    def test_single_row_equals_ttv(self):
        rng = random.Random(6)
        a = rand_dense(rng, (3, 4, 2))
        row = rand_dense(rng, (1, 4))
        c = ttm(a, row, 2)
        assert c.shape == (3, 1, 2)
        vec = DenseTensor((4,))
        for k in range(4):
            vec[k] = row[row.offsets[0], k + row.offsets[1]]
        c.reshape((3, 2))
        assert tensors_equal(c, ttv(a, vec, 2))

    def test_random_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            p = rng.randint(2, 4)
            shape = tuple(rng.randint(1, 4) for _ in range(p))
            m = rng.randint(1, p)
            n_new = rng.randint(1, 4)
            a = rand_operand(rng, shape)
            bmat = rand_operand(rng, (n_new, shape[m - 1]))
            c = ttm(a, bmat, m)
            box, bbox = read_box(a), read_box(bmat)
            got = read_box(c)
            for ic in got:
                want = sum(
                    box[ic[: m - 1] + (k,) + ic[m:]] * bbox[(ic[m - 1], k)]
                    for k in range(shape[m - 1])
                )
                assert got[ic] == want

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ttm(DenseTensor((3, 4)), DenseTensor((2, 5)), 2)
        with pytest.raises(ValueError):
            ttm(DenseTensor((3, 4)), DenseTensor((2, 4, 1)), 2)


class TestTtt:
    def test_outer_product_of_vectors(self):
        u = DenseTensor.from_memory((2,), [2, 3])
        v = DenseTensor.from_memory((3,), [1, 10, 100])
        c = ttt(u, v, ContractionSpec(0, (1,), (1,)))
        assert c.shape == (2, 3)
        assert read_box(c) == {
            (i, j): u[i] * v[j] for i in range(2) for j in range(3)
        }

    def test_full_contraction_is_inner_product(self):
        a = DenseTensor((2, 2, 2), fill_value=1)
        b = DenseTensor((2, 2, 2), fill_value=1)
        spec = ContractionSpec(3, (1, 2, 3), (1, 2, 3))
        c = ttt(a, b, spec)
        assert c.shape == (1,) and c.item() == 8

    def test_reference_contraction_shapes(self):
        a = DenseTensor((3, 4, 2), fill_value=1)
        b = DenseTensor((4, 3, 5), fill_value=1)
        spec = ContractionSpec(2, (3, 1, 2), (3, 2, 1))
        c = ttt(a, b, spec)
        assert c.shape == (2, 5)
        assert c.data == [12] * 10

    def test_random_matches_quintuple_loop(self):
        rng = random.Random(8)
        for _ in range(30):
            pa = rng.randint(1, 4)
            q = rng.randint(0, pa)
            r = pa - q
            s_min = 0 if q else 1
            s = rng.randint(s_min, max(s_min, 4 - q))
            pb = q + s
            na = tuple(rng.randint(1, 4) for _ in range(pa))
            phi = list(range(1, pa + 1))
            rng.shuffle(phi)
            psi = list(range(1, pb + 1))
            rng.shuffle(psi)
            nb = [0] * pb
            for k in range(s):
                nb[psi[k] - 1] = rng.randint(1, 4)
            for k in range(q):
                nb[psi[s + k] - 1] = na[phi[r + k] - 1]
            a = rand_operand(rng, na)
            b = rand_operand(rng, tuple(nb))
            spec = ContractionSpec(q, tuple(phi), tuple(psi))
            c = ttt(a, b, spec)
            ba, bb = read_box(a), read_box(b)
            out_shape = tuple(na[phi[k] - 1] for k in range(r)) + tuple(
                nb[psi[k] - 1] for k in range(s)
            )
            bounds = [na[phi[r + k] - 1] for k in range(q)]
            got = read_box(c)
            for ic in itertools.product(*[range(n) for n in out_shape or (1,)]):
                acc = 0
                for jt in itertools.product(*[range(x) for x in bounds]):
                    ia = [0] * pa
                    ib = [0] * pb
                    for k in range(r):
                        ia[phi[k] - 1] = ic[k]
                    for k in range(s):
                        ib[psi[k] - 1] = ic[r + k]
                    for k in range(q):
                        ia[phi[r + k] - 1] = jt[k]
                        ib[psi[s + k] - 1] = jt[k]
                    acc += ba[tuple(ia)] * bb[tuple(ib)]
                key = ic if out_shape else (0,)
                assert got[key] == acc

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ContractionSpec(1, (1, 1), (1,))
        with pytest.raises(ValueError):
            ContractionSpec(2, (1,), (1, 2))
        with pytest.raises(ValueError):
            ContractionSpec(-1, (1,), (1,))
        a, b = DenseTensor((2, 3)), DenseTensor((4,))
        with pytest.raises(ValueError):
            ttt(a, b, ContractionSpec(1, (1, 2), (1,)))  # extent mismatch
        with pytest.raises(ValueError):
            ttt(a, b, ContractionSpec(1, (1,), (1,)))  # arity mismatch


class TestReductionSpecs:
    def test_ttv_spec_example(self):
        spec = reduce_ttv_to_ttt(3, 2)
        assert spec.phi == (1, 3, 2) and spec.psi == (1,) and spec.q == 1

    def test_vector_matrix_case(self):
        rng = random.Random(9)
        a = rand_dense(rng, (3, 4))
        b = rand_dense(rng, (3,))
        via_ttv = ttv(a, b, 1)
        via_ttt = ttt(a, b, reduce_ttv_to_ttt(2, 1))
        assert tensors_equal(via_ttv, via_ttt)

    def test_ttv_reduction_sweep(self):
        rng = random.Random(10)
        for _ in range(60):
            p = rng.randint(2, 4)
            shape = tuple(rng.randint(1, 4) for _ in range(p))
            m = rng.randint(1, p)
            a = rand_operand(rng, shape)
            b = rand_operand(rng, (shape[m - 1],))
            assert tensors_equal(
                ttv(a, b, m), ttt(a, b, reduce_ttv_to_ttt(p, m))
            )

    def test_ttm_reduction_last_mode_direct(self):
        rng = random.Random(11)
        a = rand_dense(rng, (3, 2, 4))
        b = rand_dense(rng, (5, 4))
        assert tensors_equal(ttm(a, b, 3), ttt(a, b, reduce_ttm_to_ttt(3, 3)))

    def test_ttm_reduction_general_mode_is_cycled(self):
        rng = random.Random(12)
        for _ in range(20):
            p = rng.randint(2, 4)
            shape = tuple(rng.randint(1, 4) for _ in range(p))
            m = rng.randint(1, p)
            a = rand_dense(rng, shape)
            b = rand_dense(rng, (rng.randint(1, 4), shape[m - 1]))
            via_ttt = ttt(a, b, reduce_ttm_to_ttt(p, m))
            cycled = tuple(k for k in range(1, p + 1) if k != m) + (m,)
            assert tensors_equal(via_ttt, transpose(ttm(a, b, m), cycled))


def three_ways(rng, shape, values):
    """The same logical float tensor at the default layout, at a random
    layout with offsets, and as a stepped view into a larger tensor."""
    p = len(shape)
    default = DenseTensor.from_memory(shape, values)
    other = DenseTensor(shape, rand_offsets(rng, p), rand_layout(rng, p))
    parent = DenseTensor(
        tuple(2 * n + 1 for n in shape), rand_offsets(rng, p), rand_layout(rng, p)
    )
    view = parent.view(
        [Range(o + 1, 2, o + 2 * n - 1) for o, n in zip(parent.offsets, shape)]
    )
    copy(default, other)
    copy(default, view)
    return default, other, view


@st.composite
def contraction_cases(draw):
    """Operands and calls of ttv, ttm, ttt (q in 0..2) and outer_product,
    with float data whose magnitudes differ widely, so that any change of
    summation order shows in the last bits."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.integers(2, 3))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(p))
    m = draw(st.integers(1, p))
    q = draw(st.integers(0, 2))
    phi = tuple(draw(st.permutations(range(1, p + 1))))
    s = draw(st.integers(0 if q else 1, 2))
    psi = tuple(draw(st.permutations(range(1, q + s + 1))))
    nb = [0] * (q + s)
    for k in range(s):
        nb[psi[k] - 1] = draw(st.integers(1, 3))
    for k in range(q):
        nb[psi[s + k] - 1] = shape[phi[p - q + k] - 1]
    rows = draw(st.integers(1, 3))
    shapes = (shape, (shape[m - 1],), (rows, shape[m - 1]), tuple(nb))
    operands = [
        three_ways(
            rng,
            n,
            [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(prod(n))],
        )
        for n in shapes
    ]
    spec = ContractionSpec(q, phi, psi)
    calls = [
        lambda a, v, mat, b: ttv(a, v, m),
        lambda a, v, mat, b: ttm(a, mat, m),
        lambda a, v, mat, b: ttt(a, b, spec),
        lambda a, v, mat, b: outer_product(a, b),
    ]
    return operands, calls


class TestLayoutExactness:
    @given(contraction_cases())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_across_layouts_and_views(self, case):
        operands, calls = case
        for call in calls:
            results = [call(*way) for way in zip(*operands)]
            first = results[0].data
            for c in results[1:]:
                assert c.data == first
                assert list(map(type, c.data)) == list(map(type, first))


class TestReach:
    # Raw cursors over a 6-element buffer: one reaches positions -4..1, the
    # other 1..6.
    BAD = ((0, (1, -2)), (1, (1, 2)))

    @pytest.mark.parametrize("pos, strides", BAD)
    @pytest.mark.parametrize("op", ["ttv", "ttm", "ttt"])
    def test_out_of_buffer_operand_raises(self, op, pos, strides):
        a = MultiIterator([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], pos, strides, (2, 3))
        ones = DenseTensor((3,), fill_value=1.0)
        with pytest.raises(IndexError):
            if op == "ttv":
                ttv(a, ones, 2)
            elif op == "ttm":
                ttm(DenseTensor((2, 3), fill_value=1.0), a, 2)
            else:
                ttt(ones, a, ContractionSpec(1, (1,), (1, 2)))

    def test_reversed_strides_match_materialized_copy(self):
        rng = random.Random(22)
        data = [rng.uniform(-1, 1) for _ in range(6)]
        a = MultiIterator(data, 5, (-1, -2), (2, 3))
        dense = DenseTensor((2, 3))
        copy(a, dense)
        v = rand_dense(rng, (3,), kind="float64")
        mat = rand_dense(rng, (4, 2), kind="float64")
        b = rand_dense(rng, (3, 2), kind="float64")
        spec = ContractionSpec(1, (2, 1), (1, 2))
        assert ttv(a, v, 2).data == ttv(dense, v, 2).data
        assert ttm(a, mat, 1).data == ttm(dense, mat, 1).data
        assert ttt(a, b, spec).data == ttt(dense, b, spec).data
        assert ttt(b, a, spec).data == ttt(b, dense, spec).data
        assert outer_product(a, v).data == outer_product(dense, v).data

    def test_each_operand_checked_once_per_call(self, monkeypatch):
        checked = []
        check = iterators.check_reach

        def spy(c):
            checked.append(c)
            check(c)

        for module in (iterators, contraction):
            monkeypatch.setattr(module, "check_reach", spy)
        rng = random.Random(23)
        a = rand_operand(rng, (3, 4, 2), "float64")
        reversed_a = MultiIterator(list(range(6)), 5, (-1, -2), (2, 3))
        calls = [
            lambda: ttv(a, DenseTensor((4,), fill_value=1.0), 2),
            lambda: ttv(reversed_a, DenseTensor((3,), fill_value=1), 2),
            lambda: ttm(a, rand_operand(rng, (5, 2), "float64"), 3),
            lambda: ttt(a, rand_operand(rng, (4, 2), "float64"),
                        ContractionSpec(2, (1, 2, 3), (1, 2))),
        ]
        for call in calls:
            checked.clear()
            call()
            assert len(checked) == 2


class TestNamedSpecialCases:
    def test_norm_all_ones(self):
        assert frobenius_norm(DenseTensor((2, 2, 2), fill_value=1)) == sqrt(8)

    def test_inner_nonnegative_definite(self):
        rng = random.Random(13)
        t = rand_dense(rng, (3, 2), kind="float64")
        assert inner_product_tensors(t, t) >= 0
        z = DenseTensor((3, 2))
        assert inner_product_tensors(z, z) == 0

    def test_outer_shapes_and_values(self):
        rng = random.Random(14)
        a = rand_operand(rng, (2, 3))
        b = rand_operand(rng, (4,))
        c = outer_product(a, b)
        assert c.shape == (2, 3, 4)
        ba, bb = read_box(a), read_box(b)
        got = read_box(c)
        assert all(
            got[(i, j, k)] == ba[(i, j)] * bb[(k,)]
            for i in range(2)
            for j in range(3)
            for k in range(4)
        )

    def test_inner_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner_product_tensors(DenseTensor((2, 3)), DenseTensor((3, 2)))


class TestTimesVectors:
    def test_full_contraction_counts(self):
        a = DenseTensor((2, 3, 2), fill_value=1)
        vs = [DenseTensor((n,), fill_value=1) for n in (2, 3, 2)]
        c = times_vectors(a, vs, [1, 2, 3])
        assert c.shape == (1,) and c.item() == 12

    def test_single_entry_equals_ttv(self):
        rng = random.Random(15)
        a = rand_dense(rng, (3, 4, 2))
        b = rand_dense(rng, (4,))
        assert tensors_equal(times_vectors(a, [b], [2]), ttv(a, b, 2))

    def test_skip_form_matches_explicit(self):
        rng = random.Random(16)
        for _ in range(10):
            p = rng.randint(2, 4)
            shape = tuple(rng.randint(1, 4) for _ in range(p))
            skip = rng.randint(1, p)
            a = rand_dense(rng, shape)
            full = [rand_dense(rng, (n,)) for n in shape]
            explicit_modes = [m for m in range(1, p + 1) if m != skip]
            explicit_vecs = [full[m - 1] for m in explicit_modes]
            assert tensors_equal(
                times_vectors(a, full, skip=skip),
                times_vectors(a, explicit_vecs, explicit_modes),
            )

    def test_mode_application_order_commutes(self):
        rng = random.Random(17)
        a = rand_dense(rng, (3, 4, 2))
        u = rand_dense(rng, (3,))
        w = rand_dense(rng, (2,))
        combined = times_vectors(a, [u, w], [1, 3])
        manual_hi_lo = ttv(ttv(a, w, 3), u, 1)
        manual_lo_hi = ttv(ttv(a, u, 1), w, 2)  # mode 3 shifts to 2
        assert tensors_equal(combined, manual_hi_lo)
        assert tensors_equal(combined, manual_lo_hi)

    def test_validation(self):
        a = DenseTensor((2, 3))
        v = DenseTensor((2,))
        with pytest.raises(ValueError):
            times_vectors(a, [v, v], [1, 1])
        with pytest.raises(ValueError):
            times_vectors(a, [v], [3])
        with pytest.raises(ValueError):
            times_vectors(a, [v], [1], skip=2)


class TestTimesMatrices:
    def test_all_identities(self):
        rng = random.Random(18)
        a = rand_dense(rng, (2, 3, 2))
        mats = [identity_matrix(n) for n in a.shape]
        assert tensors_equal(times_matrices(a, mats, [1, 2, 3]), a)

    def test_single_equals_ttm(self):
        rng = random.Random(19)
        a = rand_dense(rng, (2, 3, 2))
        b = rand_dense(rng, (4, 3))
        assert tensors_equal(times_matrices(a, [b], [2]), ttm(a, b, 2))

    def test_two_modes_commute(self):
        rng = random.Random(20)
        a = rand_dense(rng, (2, 3, 2))
        u = rand_dense(rng, (4, 2))
        v = rand_dense(rng, (5, 2))
        combined = times_matrices(a, [u, v], [1, 3])
        assert tensors_equal(combined, ttm(ttm(a, v, 3), u, 1))
        assert tensors_equal(combined, ttm(ttm(a, u, 1), v, 3))


class TestAllocationDiscipline:
    def test_contractions_allocate_only_the_output(self, monkeypatch):
        counter = [0]
        original = DenseTensor.__init__

        def counting(self, *args, **kw):
            counter[0] += 1
            return original(self, *args, **kw)

        monkeypatch.setattr(DenseTensor, "__init__", counting)
        rng = random.Random(21)
        a = rand_operand(rng, (3, 4, 2))
        b = rand_operand(rng, (4,))
        mat = rand_operand(rng, (5, 4))
        t2 = rand_operand(rng, (4, 3))

        counter[0] = 0
        ttv(a, b, 2)
        assert counter[0] == 1
        counter[0] = 0
        ttm(a, mat, 2)
        assert counter[0] == 1
        counter[0] = 0
        ttt(a, t2, ContractionSpec(2, (3, 1, 2), (2, 1)))
        assert counter[0] == 1
        counter[0] = 0
        transpose(a, (2, 3, 1))
        assert counter[0] == 1
