"""Cross-checks of the contraction suite against numpy.tensordot, a third
route independent of both the contraction engine and the nested-loop
oracles.  Integer data keeps every comparison exact."""

import random

import numpy as np
import pytest

from tensorlib import ContractionSpec, transpose, ttm, ttt, ttv, zero_indices

from conftest import rand_operand


def to_numpy(t):
    a = np.zeros(t.shape, dtype=np.int64)
    o = t.offsets
    for i in zero_indices(t.shape):
        a[i] = t[tuple(x + y for x, y in zip(i, o))]
    return a


def memory_f_order(t):
    """Result tensors are default-layout and zero-offset, so their buffer
    is the Fortran-order raveling of the numpy equivalent."""
    return list(t.data)


@pytest.mark.parametrize("seed", range(5))
def test_ttv_matches_tensordot(seed):
    rng = random.Random(seed)
    for _ in range(20):
        p = rng.randint(2, 4)
        shape = tuple(rng.randint(1, 4) for _ in range(p))
        m = rng.randint(1, p)
        a = rand_operand(rng, shape)
        b = rand_operand(rng, (shape[m - 1],))
        got = ttv(a, b, m)
        want = np.tensordot(to_numpy(a), to_numpy(b), axes=([m - 1], [0]))
        assert memory_f_order(got) == list(want.ravel(order="F"))


@pytest.mark.parametrize("seed", range(5))
def test_ttm_matches_tensordot(seed):
    rng = random.Random(100 + seed)
    for _ in range(20):
        p = rng.randint(2, 4)
        shape = tuple(rng.randint(1, 4) for _ in range(p))
        m = rng.randint(1, p)
        a = rand_operand(rng, shape)
        bmat = rand_operand(rng, (rng.randint(1, 4), shape[m - 1]))
        got = ttm(a, bmat, m)
        want = np.moveaxis(
            np.tensordot(to_numpy(a), to_numpy(bmat), axes=([m - 1], [1])),
            -1,
            m - 1,
        )
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
        assert memory_f_order(got) == list(np.atleast_1d(want).ravel(order="F"))
