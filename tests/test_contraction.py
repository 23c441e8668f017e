import importlib
import itertools
import math
import operator
import random
import re
import sys
import tracemalloc
from math import prod, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorlib import (
    ContractionSpec,
    DenseTensor,
    MultiIterator,
    Range,
    compare_ranges,
    copy,
    fill,
    frobenius_norm,
    inner_product_tensors,
    outer_product,
    reduce_ttm_to_ttt,
    reduce_ttv_to_ttt,
    tensors_equal,
    times_matrices,
    times_vectors,
    transform_binary,
    transform_unary,
    transpose,
    ttm,
    ttt,
    ttv,
)

from conftest import (
    FAR_NAMES,
    draw_values,
    far_strided,
    four_layouts,
    rand_dense,
    rand_layout,
    rand_offsets,
    rand_operand,
    read_box,
)

contraction = importlib.import_module("tensorlib.contraction")
elementwise = importlib.import_module("tensorlib.elementwise")
iterators = importlib.import_module("tensorlib.iterators")
verify = importlib.import_module("tensorlib.verify")


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
    """Operands and calls of ttv, ttm, ttt (q in 0..2), outer_product and
    times_vectors over every mode, with float data whose magnitudes differ widely, so that any change of
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
    shapes += tuple((n,) for n in shape)
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
        lambda a, v, mat, b, *vs: ttv(a, v, m),
        lambda a, v, mat, b, *vs: ttm(a, mat, m),
        lambda a, v, mat, b, *vs: ttt(a, b, spec),
        lambda a, v, mat, b, *vs: outer_product(a, b),
        lambda a, v, mat, b, *vs: times_vectors(a, vs, modes=range(1, p + 1)),
    ]
    return operands, calls


def assert_bit_identical(results):
    first = results[0].data
    for c in results[1:]:
        assert c.data == first
        assert list(map(type, c.data)) == list(map(type, first))


class TestLayoutExactness:
    @given(contraction_cases())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_across_layouts_and_views(self, case):
        operands, calls = case
        for call in calls:
            assert_bit_identical([call(*way) for way in zip(*operands)])

    # B has more free positions than A, so the engine packs A and streams
    # B: each product is taken as b * a, against a * b in the reference.
    @pytest.mark.parametrize(
        "shapes, call, labels",
        [
            (((2, 3), (7, 3)), lambda a, b: ttm(a, b, 2),
             ((1, 2), (0,), (1, 0), (2, 0))),
            (((3,), (3, 4, 5)), lambda a, b: ttt(a, b, ContractionSpec(1, (1,), (2, 3, 1))),
             ((1, 2), (0,), (0,), (0, 1, 2))),
        ],
        ids=["ttm", "ttt"],
    )
    def test_exchanged_operands_match_reference(self, shapes, call, labels):
        rng = random.Random(24)
        values = [
            [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(prod(n))]
            for n in shapes
        ]
        ways = [three_ways(rng, n, v) for n, v in zip(shapes, values)]
        results = [call(a, b) for a, b in zip(*ways)]
        assert_bit_identical(results)
        out, summed, a_labels, b_labels = labels
        expected, _ = verify.contract(
            out, summed, (values[0], shapes[0], a_labels), (values[1], shapes[1], b_labels)
        )
        assert results[0].data == expected


def ttt_reference(spec, a, b):
    """``verify.contract`` of ``ttt(a, b, spec)`` on ``(values, shape)``
    pairs, labelled as verify's ttt family labels them."""
    (va, na), (vb, nb) = a, b
    q, r, s = spec.q, spec.r, spec.s
    la, lb = [0] * len(na), [0] * len(nb)
    for k, d in enumerate(spec.phi):
        la[d - 1] = k if k < r else s + k
    for k, d in enumerate(spec.psi):
        lb[d - 1] = r + k
    return verify.contract(range(r + s), range(r + s, r + s + q), (va, na, la), (vb, nb, lb))


class TestOneStepPerOutput:
    """Each output is one comprehension step over its streamed bound fiber,
    or a gathered list where that fiber is several; every product gives the
    same bits at four layouts and the bits of ``verify.contract``."""

    SHAPE = (3, 4, 2)
    # q = 0, q = 1, and three q = 2 specs whose bound pairs (A's dimensions
    # 1 and 3) merge into no single fiber at any layout: with B's free side
    # smaller (A streamed, several offsets; one packed fiber, then two) and
    # larger (A packed).
    SPECS = (
        (ContractionSpec(0, (1, 2, 3), (1, 2)), (2, 3)),
        (ContractionSpec(1, (1, 3, 2), (2, 1)), (4, 5)),
        (ContractionSpec(2, (2, 1, 3), (1, 2)), (3, 2)),
        (ContractionSpec(2, (2, 1, 3), (3, 1, 2)), (3, 2, 6)),
        (ContractionSpec(2, (2, 1, 3), (3, 1, 2)), (3, 2, 2)),
    )

    @staticmethod
    def operand(rng, shape):
        values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(prod(shape))]
        return (values, shape), four_layouts(shape, values)

    def cases(self):
        """``(name, calls over the four layouts, expected values)``."""
        rng = random.Random(19)
        (va, na), a = self.operand(rng, self.SHAPE)
        vectors = [self.operand(rng, (n,)) for n in self.SHAPE]
        for m, ((vv, nv), v) in enumerate(vectors, start=1):
            expected, _ = verify._times(va, na, vv, nv, m)
            yield f"ttv.m{m}", [ttv(x, y, m) for x, y in zip(a, v)], expected
        (vm, nm), mat = self.operand(rng, (5, 4))
        expected, _ = verify._times(va, na, vm, nm, 2)
        yield "ttm.m2", [ttm(x, y, 2) for x, y in zip(a, mat)], expected
        for spec, nb in self.SPECS:
            (vb, nb), b = self.operand(rng, nb)
            expected, _ = ttt_reference(spec, (va, na), (vb, nb))
            yield f"ttt.q{spec.q}{nb}", [ttt(x, y, spec) for x, y in zip(a, b)], expected
        (vb, nb), b = self.operand(rng, (2, 3))
        expected, _ = verify.contract(range(5), (), (va, na, range(3)), (vb, nb, range(3, 5)))
        yield "outer_product", [outer_product(x, y) for x, y in zip(a, b)], expected
        expected, shape = va, na
        for m in (3, 2, 1):
            expected, shape = verify._times(expected, shape, *vectors[m - 1][0], m)
        yield "times_vectors", [
            times_vectors(x, [v[k] for _, v in vectors], modes=(1, 2, 3))
            for k, x in enumerate(a)
        ], expected

    def test_every_layout_gives_the_reference_bits(self):
        names = []
        for name, results, expected in self.cases():
            names.append(name)
            want = [x.hex() for x in expected]
            for got in results:
                assert [x.hex() for x in got.data] == want, name
        assert len(names) == 11

    @pytest.mark.parametrize("layout", range(4))
    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_a_full_tensor_ttv_gathers_only_to_pack(self, monkeypatch, mode, layout):
        rng = random.Random(mode)
        n = 32
        _, a = self.operand(rng, (n, n, n))
        _, v = self.operand(rng, (n,))
        calls = []
        gather = contraction._gather

        def counted(*args):
            calls.append(args)
            return gather(*args)

        monkeypatch.setattr(contraction, "_gather", counted)
        out = ttv(a[layout], v[0], mode)
        assert len(calls) <= 1
        monkeypatch.setattr(contraction, "_gather", gather)
        assert out.data == ttv(a[0], v[0], mode).data


def bits(v):
    """A value's type and exact bits: ``.hex()`` for a float."""
    return type(v), v.hex() if isinstance(v, float) else v


def far_products(name, kind):
    """``(label, result, expected values)`` of ttv in every mode, ttm and
    ttt at the far mode, and a two-step times_vectors, on the
    far-strided operand ``name``, each against ``verify.contract``."""
    rng = random.Random(f"{name}:{kind}")
    a, va = far_strided(rng, name, kind)
    na = a.shape
    far = 3 if name.startswith("first") else 1
    vectors = [draw_values(rng, kind, n) for n in na]
    for m in (1, 2, 3):
        v = DenseTensor.from_memory((na[m - 1],), vectors[m - 1])
        yield f"ttv.m{m}", ttv(a, v, m), verify._times(va, na, v.data, (na[m - 1],), m)[0]
    mat = DenseTensor.from_memory((2, na[far - 1]), draw_values(rng, kind, 2 * na[far - 1]))
    yield "ttm", ttm(a, mat, far), verify._times(va, na, mat.data, mat.shape, far)[0]
    b = DenseTensor.from_memory((na[far - 1], 2), draw_values(rng, kind, 2 * na[far - 1]))
    phi = (1, 2, 3) if far == 3 else (2, 3, 1)
    spec = ContractionSpec(1, phi, (2, 1))
    yield "ttt", ttt(a, b, spec), ttt_reference(spec, (va, na), (b.data, b.shape))[0]
    modes = (2, 3) if far == 3 else (1, 2)
    expected, shape = va, na
    for m in reversed(modes):
        expected, shape = verify._times(expected, shape, vectors[m - 1], (na[m - 1],), m)
    vs = [DenseTensor.from_memory((na[m - 1],), vectors[m - 1]) for m in modes]
    yield "times_vectors", times_vectors(a, vs, modes=modes), expected


class TestFarStridedTiles:
    """Operands with a dimension 4096 or more slots apart, whose streamed
    fibers the engine reads in tiles: every product keeps the bits of
    ``verify.contract``, for int and float elements."""

    @pytest.mark.parametrize("kind", ["int64", "float64"])
    @pytest.mark.parametrize("name", FAR_NAMES)
    def test_products_give_the_reference_bits(self, name, kind):
        labels = []
        for label, got, expected in far_products(name, kind):
            labels.append(label)
            assert list(map(bits, got.data)) == list(map(bits, expected)), label
        assert labels == ["ttv.m1", "ttv.m2", "ttv.m3", "ttm", "ttt", "times_vectors"]


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


# Every public kernel and container path, with the shapes of its operands
# and the operand kinds it accepts (raw cursors have no shape or layout, so
# the container paths take tensors and views only).
ALL_KINDS = ("tensor", "view", "cursor")
SHAPE = (3, 4, 2)
DOOR_CALLS = {
    "ttv": ([SHAPE, (4,)], ALL_KINDS, lambda a, b: ttv(a, b, 2)),
    "ttm": ([SHAPE, (5, 4)], ALL_KINDS, lambda a, b: ttm(a, b, 2)),
    "ttt": ([SHAPE, (4, 3)], ALL_KINDS,
            lambda a, b: ttt(a, b, ContractionSpec(1, (1, 3, 2), (2, 1)))),
    "outer_product": ([(3, 2), (4,)], ALL_KINDS, outer_product),
    "transpose": ([SHAPE], ALL_KINDS, lambda a: transpose(a, (3, 1, 2))),
    "times_vectors": ([SHAPE, (3,), (4,), (2,)], ALL_KINDS,
                      lambda a, *v: times_vectors(a, v, modes=(1, 2, 3))),
    "times_matrices": ([SHAPE, (2, 3), (5, 4)], ALL_KINDS,
                       lambda a, *m: times_matrices(a, m, modes=(1, 2))),
    "copy": ([SHAPE, SHAPE], ALL_KINDS, copy),
    "fill": ([SHAPE], ALL_KINDS, lambda d: fill(d, 7.0)),
    "transform_unary": ([SHAPE, SHAPE], ALL_KINDS,
                        lambda a, d: transform_unary(a, d, abs)),
    "transform_binary": ([SHAPE, SHAPE, SHAPE], ALL_KINDS,
                         lambda a, b, d: transform_binary(a, b, d, operator.add)),
    "compare_ranges": ([SHAPE, SHAPE], ALL_KINDS, compare_ranges),
    "DenseTensor.fill": ([SHAPE], ("tensor",), lambda t: t.fill(7.0)),
    "relayout": ([SHAPE], ("tensor",), lambda t: t.relayout((3, 2, 1))),
    "assign": ([SHAPE], ("tensor", "view"), lambda src: DenseTensor(SHAPE).assign(src)),
    "tensors_equal": ([SHAPE, SHAPE], ("tensor", "view"), tensors_equal),
    "materialize": ([SHAPE], ("view",), lambda v: v.materialize()),
}


def door_operand(kind, shape):
    """An operand of ``shape`` whose reach ends at its buffer's last
    element, and that buffer: a tensor, a view of the corner of a root one
    larger in every dimension, or a raw cursor running backwards from the
    end of its buffer in every dimension."""
    values = [0.5 + k for k in range(prod(shape))]
    if kind == "tensor":
        t = DenseTensor.from_memory(shape, values)
        return t, t.data
    if kind == "view":
        last_order = tuple(range(len(shape), 0, -1))
        root = DenseTensor(tuple(n + 1 for n in shape), layout=last_order)
        v = root.view([Range(1, n) for n in shape])
        copy(DenseTensor.from_memory(shape, values), v)
        return v, root.data
    strides = DenseTensor(shape).strides
    return MultiIterator(values, len(values) - 1, [-w for w in strides], shape), values


def reach_message(x, data):
    """``IndexError`` text for ``x``, by definition: the lowest and highest
    position any of its multi-indices addresses."""
    it = x if isinstance(x, MultiIterator) else x.miter()
    positions = [
        it.pos + sum(i * w for i, w in zip(index, it.strides))
        for index in itertools.product(*map(range, it.extents))
    ]
    return (f"cursor reaches [{min(positions)}, {max(positions)}] outside its "
            f"buffer of {len(data)} elements")


DOOR_CASES = [
    (name, k, kind)
    for name, (shapes, kinds, _) in DOOR_CALLS.items()
    for k in range(len(shapes))
    for kind in kinds
]


class TestDoor:
    @pytest.mark.parametrize("name, k, kind", DOOR_CASES)
    def test_short_buffer_raises_before_any_write(self, name, k, kind):
        shapes, kinds, call = DOOR_CALLS[name]
        made = [door_operand(kind if j == k else kinds[0], shape)
                for j, shape in enumerate(shapes)]
        operands = [x for x, _ in made]
        buffers = [data for _, data in made]
        buffers[k].pop()
        before = [data[:] for data in buffers]
        with pytest.raises(IndexError) as raised:
            call(*operands)
        assert str(raised.value) == reach_message(operands[k], buffers[k])
        assert [data[:] for data in buffers] == before

    @pytest.mark.parametrize(
        "name", [name for name, (_, kinds, _) in DOOR_CALLS.items() if "cursor" in kinds]
    )
    def test_each_raw_cursor_checked_once_per_call(self, monkeypatch, name):
        checked = []
        check = iterators.check_reach

        def spy(c):
            checked.append(c)
            check(c)

        for module in (iterators, elementwise, contraction):
            if hasattr(module, "check_reach"):
                monkeypatch.setattr(module, "check_reach", spy)
        shapes, _, call = DOOR_CALLS[name]
        cursors = [door_operand("cursor", shape)[0] for shape in shapes]
        call(*cursors)
        assert [sum(c is x for c in checked) for x in cursors] == [1] * len(cursors)


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


class TestNoBoundPair:
    """``outer_product`` and ttt with q = 0 store each output as the product
    ``a * b`` itself: the same bits, type and sign of zero as the product
    of the operands' ``read_box`` values, at every layout, offset and view,
    whichever operand the engine packs."""

    # |A| < |B| (A packed, B streamed) and |A| > |B|, with extent-1 dimensions.
    SHAPES = [((2, 3), (3, 1, 4)), ((4, 1, 3), (2, 3)), ((1,), (5,)), ((3, 2), (1,))]

    @staticmethod
    def ways(rng, shape, values):
        """``values`` at first and last order, at a random layout with
        nonzero offsets, and as views and a view of a view."""
        return (*four_layouts(shape, values), *three_ways(rng, shape, values)[1:])

    @staticmethod
    def draw(rng, kind, count):
        if kind == "int64":
            return [rng.randint(-9, 9) for _ in range(count)]
        pool = (0.0, -0.0, 1.5, -2.25, 1e-300, -3e200)
        return [rng.choice(pool) * rng.uniform(0.5, 2) for _ in range(count)]

    @pytest.mark.parametrize("kind", ["int64", "float64"])
    @pytest.mark.parametrize("shapes", SHAPES, ids=str)
    def test_products_match_read_box(self, shapes, kind):
        rng = random.Random(f"{shapes}:{kind}")
        na, nb = shapes
        va, vb = (self.draw(rng, kind, prod(n)) for n in shapes)
        if kind == "float64":
            # -0.0 against a positive and a negative factor, 0.0 against both.
            va[0], vb[-1] = -0.0, 0.0
        phi = tuple(rng.sample(range(1, len(na) + 1), len(na)))
        psi = tuple(rng.sample(range(1, len(nb) + 1), len(nb)))
        calls = [
            (lambda a, b: outer_product(a, b), lambda i, j: i + j),
            (
                lambda a, b: ttt(a, b, ContractionSpec(0, phi, psi)),
                lambda i, j: tuple(i[d - 1] for d in phi) + tuple(j[d - 1] for d in psi),
            ),
        ]
        for a in self.ways(rng, na, va):
            for b in self.ways(rng, nb, vb):
                ba, bb = read_box(a), read_box(b)
                for call, at in calls:
                    got = {k: bits(v) for k, v in read_box(call(a, b)).items()}
                    want = {
                        at(i, j): bits(x * y) for i, x in ba.items() for j, y in bb.items()
                    }
                    assert got == want


class TestFrobeniusNorm:
    """The norm is ``hypot`` of the ``hypot``s of 4096-element runs in
    iteration order; these shapes put runs just below, at, above and well
    past one chunk."""

    SHAPES = [(5, 9, 91), (16, 16, 16), (17, 1, 241), (19, 647, 1)]

    @staticmethod
    def values(seed, shape):
        rng = random.Random(seed)
        return [rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3) for _ in range(prod(shape))]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_identical_across_layouts_and_views(self, shape):
        values = self.values(50, shape)
        rng = random.Random(51)
        shifted = DenseTensor(shape, rand_offsets(rng, 3), rand_layout(rng, 3))
        operands = four_layouts(shape, values) + (shifted,)
        copy(operands[0], shifted)
        got = {frobenius_norm(t).hex() for t in operands}
        assert len(got) == 1

    @pytest.mark.parametrize("n", [1, 2, 17, 4095, 4096])
    def test_one_chunk_is_one_hypot(self, n):
        values = self.values(52, (n,))
        assert frobenius_norm(DenseTensor.from_memory((n,), values)) == math.hypot(*values)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_within_two_ulp_of_the_exact_sum(self, shape):
        for seed in range(53, 58):
            values = self.values(seed, shape)
            want = math.sqrt(math.fsum(x * x for x in values))
            got = frobenius_norm(DenseTensor.from_memory(shape, values))
            assert abs(got - want) <= 2 * math.ulp(want)

    def test_squares_beyond_the_float_range(self):
        assert frobenius_norm(DenseTensor((2,), fill_value=1e308)) == 1e308 * math.sqrt(2)
        assert frobenius_norm(DenseTensor((4,), fill_value=1e-200)) == 2e-200
        assert frobenius_norm(DenseTensor((2,), fill_value=1.5e308)) == math.inf


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


    def test_no_matrices_returns_a_copy(self):
        a = rand_dense(random.Random(23), (2, 3, 2))
        c = times_matrices(a, [], [])
        assert tensors_equal(c, a)
        assert c is not a and c.data is not a.data


class TestChainsCheckFirst:
    """``times_vectors`` and ``times_matrices`` check every operand before
    the first step, so a bad low-mode operand raises before any contraction
    runs, with the message its own ttv or ttm raises."""

    @staticmethod
    def count_contractions(monkeypatch):
        calls = []
        contract = contraction._contract

        def spy(*args):
            calls.append(args)
            return contract(*args)

        monkeypatch.setattr(contraction, "_contract", spy)
        return calls

    def test_short_mode_1_vector(self, monkeypatch):
        rng = random.Random(31)
        a = rand_dense(rng, (3, 4, 2))
        v1, v2, v3 = (rand_dense(rng, (n,)) for n in a.shape)
        v1.data.pop()
        with pytest.raises(IndexError) as alone:
            ttv(a, v1, 1)
        calls = self.count_contractions(monkeypatch)
        with pytest.raises(IndexError) as chained:
            times_vectors(a, [v1, v2, v3], modes=(1, 2, 3))
        assert str(chained.value) == str(alone.value)
        assert calls == []

    def test_mismatched_mode_1_matrix(self, monkeypatch):
        rng = random.Random(32)
        a = rand_dense(rng, (3, 4, 2))
        mats = [rand_dense(rng, shape) for shape in ((2, 4), (5, 4), (3, 2))]
        calls = self.count_contractions(monkeypatch)
        message = "matrix columns 4 do not match extent 3 of mode 1"
        with pytest.raises(ValueError, match=f"^{message}$"):
            times_matrices(a, mats, modes=(1, 2, 3))
        assert calls == []
        with pytest.raises(ValueError, match=f"^{message}$"):
            ttm(a, mats[0], 1)

    def test_order_1_tensor_raises_as_ttm_does(self):
        a = rand_dense(random.Random(33), (3,))
        with pytest.raises(ValueError, match=r"^ttm requires order >= 2, got 1$"):
            times_matrices(a, [rand_dense(random.Random(34), (2, 3))], modes=(1,))
        assert tensors_equal(times_matrices(a, [], []), a)


def three_d():
    return DenseTensor((3, 4, 2))


class TestInputChecks:
    """Each argument check raises ``ValueError`` with its own message."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: ttv(three_d(), DenseTensor((4, 2)), 2),
             "ttv vector must be a vector, got extents (4, 2)"),
            (lambda: ttm(DenseTensor((3,)), DenseTensor((2, 3)), 1),
             "ttm requires order >= 2, got 1"),
            (lambda: ttm(three_d(), DenseTensor((5, 4)), 4), "mode 4 out of range 1..3"),
            (lambda: ContractionSpec(1, (1, 2), (1, 3)), "psi (1, 3) is not a permutation"),
            (lambda: ContractionSpec(0, (), (1,)),
             "operands must have at least one dimension"),
            (lambda: ttt(three_d(), DenseTensor((4, 3, 5)), ContractionSpec(2, (3, 1, 2), (2, 1))),
             "psi length 2 does not match order 3"),
            (lambda: reduce_ttv_to_ttt(3, 4), "mode 4 out of range 1..3"),
            (lambda: reduce_ttm_to_ttt(3, 0), "mode 0 out of range 1..3"),
            (lambda: times_vectors(three_d(), [DenseTensor((3,))], modes=[1, 2]),
             "times_vectors: got 1 operands for modes [1, 2]"),
            (lambda: times_matrices(three_d(), [DenseTensor((2, 3))], [1, 2]),
             "times_matrices: got 1 operands for modes [1, 2]"),
            (lambda: times_vectors(three_d(), [], skip=4), "skip mode 4 out of range 1..3"),
            (lambda: times_vectors(
                three_d(), [DenseTensor((3,)), DenseTensor((4,)), DenseTensor((7,))],
                modes=[1, 2, 3]),
             "times_vectors vector length 7 does not match extent 2"),
        ],
        ids=[
            "ttv-matrix-vector",
            "ttm-order-1",
            "ttm-mode",
            "spec-psi",
            "spec-empty-phi",
            "ttt-psi-length",
            "reduce-ttv-mode",
            "reduce-ttm-mode",
            "times-vectors-count",
            "times-matrices-count",
            "times-vectors-skip",
            "times-vectors-length",
        ],
    )
    def test_message(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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

    def test_gathered_loop_holds_one_streamed_fiber_at_a_time(self):
        # Both calls run the gathered loop (several packed fibers) on rows
        # of 1,024 outputs with 32 bound elements each.  Holding a row's
        # streamed fibers at once costs more than the output itself; one
        # fiber at a time, the row's values are the engine's largest hold.
        n = 32
        a = DenseTensor.from_memory((n, n, n), [k / 7 for k in range(n**3)])
        b = DenseTensor.from_memory((n, 4), [k / 3 for k in range(4 * n)])
        mat = DenseTensor.from_memory((8, n), [k / 5 for k in range(8 * n)])
        spec = ContractionSpec(1, (2, 3, 1), (2, 1))
        for call in (lambda: ttt(a, b, spec), lambda: ttm(a, mat, 1)):
            tracemalloc.start()
            try:
                out = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = sys.getsizeof(out.data) + sum(map(sys.getsizeof, out.data))
            assert peak < 2 * held


class TestIntegerModes:
    """Modes, permutations and spec fields take integers only, through the
    same rule as shapes: nothing truncates, and bool is no mode."""

    @staticmethod
    def operands():
        rng = random.Random(22)
        return rand_dense(rng, (2, 3)), rand_dense(rng, (2,)), rand_dense(rng, (4, 2))

    def test_float_times_vectors_mode_rejected(self):
        a, v, _ = self.operands()
        with pytest.raises(ValueError, match="times_vectors modes must be integers"):
            times_vectors(a, [v], modes=[1.9])

    def test_float_times_matrices_mode_rejected(self):
        a, _, m = self.operands()
        with pytest.raises(ValueError, match="times_matrices modes must be integers"):
            times_matrices(a, [m], modes=[1.2])

    def test_float_skip_rejected(self):
        a, v, _ = self.operands()
        with pytest.raises(ValueError, match="skip must be integers"):
            times_vectors(a, [v], skip=2.0)

    def test_float_tau_rejected(self):
        a, _, _ = self.operands()
        with pytest.raises(ValueError, match="tau must be integers"):
            transpose(a, (2.5, 1.2))

    @pytest.mark.parametrize(
        "q, phi, psi, field",
        [(1, (1.5, 2.2), (1,), "phi"), (1, (1, 2), (1.0,), "psi"), (1.0, (1, 2), (1,), "q")],
    )
    def test_float_spec_fields_rejected(self, q, phi, psi, field):
        with pytest.raises(ValueError, match=f"{field} must be integers"):
            ContractionSpec(q, phi, psi)

    def test_bool_mode_rejected(self):
        a, v, m = self.operands()
        with pytest.raises(ValueError, match="mode must be integers"):
            ttv(a, v, True)
        with pytest.raises(ValueError, match="mode must be integers"):
            ttm(a, m, True)

    def test_numpy_integers_accepted(self):
        a, v, m = self.operands()
        assert tensors_equal(ttv(a, v, np.int64(1)), ttv(a, v, 1))
        assert tensors_equal(ttm(a, m, np.int32(1)), ttm(a, m, 1))
        assert tensors_equal(times_vectors(a, [v], modes=[np.int8(1)]), ttv(a, v, 1))
        assert tensors_equal(transpose(a, np.array([2, 1])), transpose(a, (2, 1)))
        spec = ContractionSpec(np.int64(1), (np.int64(2), 1), (np.int16(1),))
        assert spec == ContractionSpec(1, (2, 1), (1,))
