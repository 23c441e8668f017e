"""Cross-checks against NumPy, a third route independent of both the
kernels and the nested-loop oracles.

Integer contractions compare exactly.  Hypothesis properties compare the
elementwise suite and the float contractions at ``rtol`` 1e-12, over
operands at random layouts and offsets and stepped views, built by
verify's builders from a drawn seed.  Float data lies in [0.5, 2), so no
sum cancels and a relative tolerance is meaningful."""

import random
from operator import add, mul, sub, truediv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorlib import (
    ContractionSpec,
    accumulate,
    compare_ranges,
    copy,
    fill,
    inner_product_flat,
    transform_binary,
    transpose,
    ttm,
    ttt,
    ttv,
)

from conftest import rand_operand, read_box

RTOL = 1e-12
# A few dozen small instances per property: tier-1 grows by seconds.
FLOAT_SETTINGS = settings(max_examples=40, deadline=None)
seeds = st.integers(0, 2**32)


def to_numpy(t):
    """``t``'s elements as an array; ``read_box`` lists them dimension 1
    fastest, the Fortran order."""
    return np.array(list(read_box(t).values())).reshape(t.shape, order="F")


def memory_f_order(t):
    """Result tensors are default-layout and zero-offset, so their buffer
    is the Fortran-order raveling of the numpy equivalent."""
    return list(t.data)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


# -- contraction cases, shared by the integer and the float checks ---------------


def ttv_case(rng, kind):
    p = rng.randint(2, 4)
    shape = tuple(rng.randint(1, 4) for _ in range(p))
    m = rng.randint(1, p)
    a = rand_operand(rng, shape, kind)
    b = rand_operand(rng, (shape[m - 1],), kind)
    want = np.tensordot(to_numpy(a), to_numpy(b), axes=([m - 1], [0]))
    return ttv(a, b, m), want


def ttm_case(rng, kind):
    p = rng.randint(2, 4)
    shape = tuple(rng.randint(1, 4) for _ in range(p))
    m = rng.randint(1, p)
    a = rand_operand(rng, shape, kind)
    bmat = rand_operand(rng, (rng.randint(1, 4), shape[m - 1]), kind)
    want = np.moveaxis(
        np.tensordot(to_numpy(a), to_numpy(bmat), axes=([m - 1], [1])),
        -1,
        m - 1,
    )
    return ttm(a, bmat, m), want


def ttt_case(rng, kind):
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
    a = rand_operand(rng, na, kind)
    b = rand_operand(rng, tuple(nb), kind)
    got = ttt(a, b, ContractionSpec(q, tuple(phi), tuple(psi)))

    axes_a = [phi[r + k] - 1 for k in range(q)]
    axes_b = [psi[s + k] - 1 for k in range(q)]
    want = np.tensordot(to_numpy(a), to_numpy(b), axes=(axes_a, axes_b))
    # tensordot orders free axes by original position; ours follow
    # phi/psi order.
    a_free = [d for d in range(pa) if d not in axes_a]
    b_free = [d for d in range(pb) if d not in axes_b]
    if r + s > 0:
        perm = [a_free.index(phi[k] - 1) for k in range(r)] + [
            len(a_free) + b_free.index(psi[k] - 1) for k in range(s)
        ]
        want = np.transpose(want, axes=perm)
    return got, np.atleast_1d(want)


@pytest.mark.parametrize("seed", range(5))
def test_ttv_matches_tensordot(seed):
    rng = random.Random(seed)
    for _ in range(20):
        got, want = ttv_case(rng, "int64")
        assert memory_f_order(got) == list(want.ravel(order="F"))


@pytest.mark.parametrize("seed", range(5))
def test_ttm_matches_tensordot(seed):
    rng = random.Random(100 + seed)
    for _ in range(20):
        got, want = ttm_case(rng, "int64")
        assert memory_f_order(got) == list(want.ravel(order="F"))


@pytest.mark.parametrize("seed", range(5))
def test_transpose_matches_numpy(seed):
    rng = random.Random(200 + seed)
    for _ in range(20):
        p = rng.randint(1, 4)
        shape = tuple(rng.randint(1, 4) for _ in range(p))
        tau = list(range(1, p + 1))
        rng.shuffle(tau)
        a = rand_operand(rng, shape)
        got = transpose(a, tau)
        want = np.transpose(to_numpy(a), axes=[t - 1 for t in tau])
        assert memory_f_order(got) == list(want.ravel(order="F"))


@pytest.mark.parametrize("seed", range(5))
def test_ttt_matches_tensordot(seed):
    rng = random.Random(300 + seed)
    for _ in range(20):
        got, want = ttt_case(rng, "int64")
        assert memory_f_order(got) == list(want.ravel(order="F"))


@pytest.mark.parametrize("case", [ttv_case, ttm_case, ttt_case])
@given(seed=seeds)
@FLOAT_SETTINGS
def test_float_contraction_matches_tensordot(case, seed):
    got, want = case(random.Random(seed), "float64")
    assert_close(memory_f_order(got), want.ravel(order="F"))


# -- the elementwise suite on floats ------------------------------------------------


def float_operands(seed, count):
    """``count`` float operands of one random shape (order 1 to 4, extents
    1 to 4), each a tensor at a random layout and offsets or a stepped
    view into a larger one."""
    rng = random.Random(seed)
    shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
    return rng, [rand_operand(rng, shape, "float64") for _ in range(count)]


class TestElementwiseFloat:
    @given(seed=seeds)
    @FLOAT_SETTINGS
    def test_copy(self, seed):
        _, (src, dst) = float_operands(seed, 2)
        copy(src, dst)
        assert_close(to_numpy(dst), to_numpy(src))

    @given(seed=seeds)
    @FLOAT_SETTINGS
    def test_fill(self, seed):
        rng, (dst,) = float_operands(seed, 1)
        value = rng.random()
        fill(dst, value)
        assert_close(to_numpy(dst), np.full(dst.shape, value))

    @given(seed=seeds, op=st.sampled_from([add, sub, mul, truediv]))
    @FLOAT_SETTINGS
    def test_transform_binary(self, seed, op):
        _, (a, b, dst) = float_operands(seed, 3)
        want = op(to_numpy(a), to_numpy(b))
        transform_binary(a, b, dst, op)
        assert_close(to_numpy(dst), want)

    @given(seed=seeds)
    @FLOAT_SETTINGS
    def test_inner_product_flat(self, seed):
        _, (a, b) = float_operands(seed, 2)
        assert_close(inner_product_flat(a, b, 0.0), np.sum(to_numpy(a) * to_numpy(b)))

    @given(seed=seeds)
    @FLOAT_SETTINGS
    def test_accumulate(self, seed):
        _, (a,) = float_operands(seed, 1)
        assert_close(accumulate(a, 0.0), np.sum(to_numpy(a)))

    @given(seed=seeds, perturb=st.booleans())
    @FLOAT_SETTINGS
    def test_compare_ranges(self, seed, perturb):
        rng, (a, b) = float_operands(seed, 2)
        copy(a, b)
        if perturb:
            # Change one element of b, addressed by absolute index.
            k = tuple(rng.randrange(n) for n in b.shape)
            key = tuple(o + i for o, i in zip(b.offsets, k))
            b[key] = b[key] * (1.0 + 1e-9)
        got = compare_ranges(a, b)
        differs = (to_numpy(a) != to_numpy(b)).ravel(order="F")
        assert got.equal == (not differs.any())
        if perturb:
            first = np.unravel_index(np.argmax(differs), a.shape, order="F")
            assert got.first_mismatch == tuple(int(i) for i in first)
        else:
            assert got.first_mismatch is None
