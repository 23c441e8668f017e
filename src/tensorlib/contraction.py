"""Tensor multiplication suite: transpose, ttv, ttm, ttt and friends.

All operations run recursively over multidimensional iterators, in place,
with no unfolding: besides the output tensor nothing of operand size is
allocated, and operands of any layout, offsets, or view-ness combine
freely.  Modes and permutation tuples are one-based at this interface;
the recursive kernels translate to zero-based depths internally.

Output tensors are always default-layout (first-order) with zero offsets;
callers relayout if they need something else.  Contractions that consume
every dimension return shape-(1,) tensors (read them with ``.item()``)
rather than introducing an order-0 special case.

The tensor-tensor product is the general form.  For operands A of order
q+r and B of order q+s it computes, over one-based permutations ``phi``
(length q+r) and ``psi`` (length q+s)::

    C(i_1, ..., i_{r+s}) = sum over q bound index pairs of A(..) * B(..)

where the first r entries of phi pick A's free dimensions in output order,
the first s entries of psi pick B's (appended after A's), and the trailing
q entries of each pick the contracted dimension pairs, whose extents must
match pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence, Tuple

from .elementwise import _copy, copy, inner_product_flat
from .iterators import MultiIterator
from .tensor import DenseTensor

__all__ = [
    "ContractionSpec",
    "frobenius_norm",
    "inner_product_tensors",
    "outer_product",
    "reduce_ttm_to_ttt",
    "reduce_ttv_to_ttt",
    "times_matrices",
    "times_vectors",
    "transpose",
    "ttm",
    "ttt",
    "ttv",
]


def _mit(source) -> MultiIterator:
    if isinstance(source, MultiIterator):
        return source.clone()
    return source.miter()


def _vector_mit(b, expected_len: int, what: str) -> MultiIterator:
    """Read ``b`` as a vector: an order-1 tensor, or an (n, 1) column."""
    it = _mit(b)
    if it.order == 2 and it.extents[1] == 1:
        it = MultiIterator(it.data, it.pos, it.strides[:1], it.extents[:1])
    if it.order != 1:
        raise ValueError(f"{what} must be a vector, got extents {it.extents}")
    if it.extents[0] != expected_len:
        raise ValueError(
            f"{what} length {it.extents[0]} does not match extent {expected_len}"
        )
    return it


# -- transpose -------------------------------------------------------------------


def transpose(a, tau: Sequence[int]) -> DenseTensor:
    """Permuted copy: ``C(i_1, .., i_p) = A(i_tau[1], .., i_tau[p])``,
    read through a cursor over ``a`` with permuted strides.

    ``tau`` is one-based; output dimension r has the extent of input
    dimension tau[r].
    """
    ia = _mit(a)
    p = ia.order
    tau = tuple(int(t) for t in tau)
    if sorted(tau) != list(range(1, p + 1)):
        raise ValueError(f"tau {tau} is not a permutation of 1..{p}")
    shape = tuple(ia.extents[t - 1] for t in tau)
    strides = tuple(ia.strides[t - 1] for t in tau)
    permuted = MultiIterator(ia.data, ia.pos, strides, shape)
    out = DenseTensor(shape)
    _copy(permuted, out.miter())
    return out


# -- tensor times vector ------------------------------------------------------------


def ttv(a, b, mode: int) -> DenseTensor:
    """Contract dimension ``mode`` (one-based) of ``a`` with the vector
    ``b``:

        C(i_1, .., i_{m-1}, i_{m+1}, .., i_p) = sum_k A(.., k, ..) * b(k)

    ``a`` must have order >= 2; the result drops the contracted dimension.
    """
    ia = _mit(a)
    p = ia.order
    if p < 2:
        raise ValueError(f"ttv requires order >= 2, got {p}")
    if not 1 <= mode <= p:
        raise ValueError(f"mode {mode} out of range 1..{p}")
    ib = _vector_mit(b, ia.extents[mode - 1], "ttv vector")
    out_shape = ia.extents[: mode - 1] + ia.extents[mode:]
    out = DenseTensor(out_shape)
    _ttv_rec(mode - 1, p - 1, p - 2, ia, ib, out.miter())
    return out


def _ttv_rec(m, r, q, a, b, c):
    # r: depth in a (dimension index); q: depth in c.
    if m > 0:
        if r == m:
            _ttv_rec(m, r - 1, q, a, b, c)
        elif r > 0:
            pa, pc = a.pos, c.pos
            sa, sc = a.strides[r], c.strides[q]
            end = pa + a.extents[r] * sa
            while pa != end:
                a.pos, c.pos = pa, pc
                _ttv_rec(m, r - 1, q - 1, a, b, c)
                pa += sa
                pc += sc
        else:
            # Fibers along dimension m of a against b, one per element of
            # dimension 0.
            da, db, dc = a.data, b.data, c.data
            pa, pc = a.pos, c.pos
            sa, sc = a.strides[0], c.strides[0]
            sm, nm = a.strides[m], a.extents[m]
            sb, pb0 = b.strides[0], b.pos
            end = pa + a.extents[0] * sa
            while pa != end:
                acc = dc[pc]
                ja, jb = pa, pb0
                for _ in range(nm):
                    acc += da[ja] * db[jb]
                    ja += sm
                    jb += sb
                dc[pc] = acc
                pa += sa
                pc += sc
    else:
        if r > 1:
            pa, pc = a.pos, c.pos
            sa, sc = a.strides[r], c.strides[r - 1]
            end = pa + a.extents[r] * sa
            while pa != end:
                a.pos, c.pos = pa, pc
                _ttv_rec(m, r - 1, q, a, b, c)
                pa += sa
                pc += sc
        else:
            # Contracted dimension is dimension 0: row-of-slice times vector.
            da, db, dc = a.data, b.data, c.data
            pa, pc = a.pos, c.pos
            sa, sc = a.strides[1], c.strides[0]
            s0, n0 = a.strides[0], a.extents[0]
            sb, pb0 = b.strides[0], b.pos
            end = pa + a.extents[1] * sa
            while pa != end:
                acc = dc[pc]
                ja, jb = pa, pb0
                for _ in range(n0):
                    acc += da[ja] * db[jb]
                    ja += s0
                    jb += sb
                dc[pc] = acc
                pa += sa
                pc += sc


# -- tensor times matrix --------------------------------------------------------------


def ttm(a, bmat, mode: int) -> DenseTensor:
    """Contract dimension ``mode`` of ``a`` with the columns of the matrix
    ``bmat`` of shape (n_new, n_mode):

        C(.., j at mode, ..) = sum_k A(.., k at mode, ..) * B(j, k)

    The result keeps the order of ``a`` with extent n_new at ``mode``.
    No implicit transposition: rows of B index the new dimension.
    """
    ia = _mit(a)
    p = ia.order
    if p < 2:
        raise ValueError(f"ttm requires order >= 2, got {p}")
    if not 1 <= mode <= p:
        raise ValueError(f"mode {mode} out of range 1..{p}")
    ib = _mit(bmat)
    if ib.order != 2:
        raise ValueError(f"ttm matrix must have order 2, got {ib.order}")
    if ib.extents[1] != ia.extents[mode - 1]:
        raise ValueError(
            f"matrix columns {ib.extents[1]} do not match extent "
            f"{ia.extents[mode - 1]} of mode {mode}"
        )
    m = mode - 1
    out_shape = ia.extents[:m] + (ib.extents[0],) + ia.extents[m + 1 :]
    out = DenseTensor(out_shape)
    _ttm_rec(m, p - 1, ia, ib, out.miter())
    return out


def _ttm_rec(m, r, a, b, c):
    if m > 0:
        if r == m:
            _ttm_rec(m, r - 1, a, b, c)
        elif r > 0:
            pa, pc = a.pos, c.pos
            sa, sc = a.strides[r], c.strides[r]
            end = pa + a.extents[r] * sa
            while pa != end:
                a.pos, c.pos = pa, pc
                _ttm_rec(m, r - 1, a, b, c)
                pa += sa
                pc += sc
        else:
            # Slice times matrix over (dimension 0, mode m).
            da, db, dc = a.data, b.data, c.data
            pa, pc0 = a.pos, c.pos
            sa0, sc0 = a.strides[0], c.strides[0]
            sam, nam = a.strides[m], a.extents[m]
            scm, ncm = c.strides[m], c.extents[m]
            sb0, sb1, pb00 = b.strides[0], b.strides[1], b.pos
            end = pa + a.extents[0] * sa0
            while pa != end:
                pcm, pb = pc0, pb00
                for _ in range(ncm):
                    acc = dc[pcm]
                    ja, jb = pa, pb
                    for _ in range(nam):
                        acc += da[ja] * db[jb]
                        ja += sam
                        jb += sb1
                    dc[pcm] = acc
                    pcm += scm
                    pb += sb0
                pa += sa0
                pc0 += sc0
    else:
        if r > 1:
            pa, pc = a.pos, c.pos
            sa, sc = a.strides[r], c.strides[r]
            end = pa + a.extents[r] * sa
            while pa != end:
                a.pos, c.pos = pa, pc
                _ttm_rec(m, r - 1, a, b, c)
                pa += sa
                pc += sc
        else:
            # Contracted dimension is dimension 0: slice over dimension 1.
            da, db, dc = a.data, b.data, c.data
            pa, pc1 = a.pos, c.pos
            sa1, sc1 = a.strides[1], c.strides[1]
            sa0, na0 = a.strides[0], a.extents[0]
            sc0, nc0 = c.strides[0], c.extents[0]
            sb0, sb1, pb00 = b.strides[0], b.strides[1], b.pos
            end = pa + a.extents[1] * sa1
            while pa != end:
                pcm, pb = pc1, pb00
                for _ in range(nc0):
                    acc = dc[pcm]
                    ja, jb = pa, pb
                    for _ in range(na0):
                        acc += da[ja] * db[jb]
                        ja += sa0
                        jb += sb1
                    dc[pcm] = acc
                    pcm += sc0
                    pb += sb0
                pa += sa1
                pc1 += sc1


# -- tensor times tensor ----------------------------------------------------------------


@dataclass(frozen=True)
class ContractionSpec:
    """Parameters of a tensor-tensor product: ``q`` contracted dimension
    pairs plus one-based permutations ``phi`` over A's dimensions and
    ``psi`` over B's (free dimensions first, contracted last)."""

    q: int
    phi: Tuple[int, ...]
    psi: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(int(x) for x in self.phi))
        object.__setattr__(self, "psi", tuple(int(x) for x in self.psi))
        if self.q < 0:
            raise ValueError("q must be nonnegative")
        if sorted(self.phi) != list(range(1, len(self.phi) + 1)):
            raise ValueError(f"phi {self.phi} is not a permutation")
        if sorted(self.psi) != list(range(1, len(self.psi) + 1)):
            raise ValueError(f"psi {self.psi} is not a permutation")
        if self.q > len(self.phi) or self.q > len(self.psi):
            raise ValueError("q exceeds an operand's order")
        if len(self.phi) == 0 or len(self.psi) == 0:
            raise ValueError("operands must have at least one dimension")

    @property
    def r(self) -> int:
        return len(self.phi) - self.q

    @property
    def s(self) -> int:
        return len(self.psi) - self.q


def ttt(a, b, spec: ContractionSpec) -> DenseTensor:
    """General tensor-tensor product.

    The output has order r+s: A's free dimensions (phi order) followed by
    B's free dimensions (psi order); the trailing q entries of phi and psi
    name the contracted pairs, whose extents must agree.  A fully
    contracted product (r = s = 0) comes back as a shape-(1,) tensor.
    """
    ia, ib = _mit(a), _mit(b)
    q, r, s = spec.q, spec.r, spec.s
    if len(spec.phi) != ia.order:
        raise ValueError(
            f"phi length {len(spec.phi)} does not match order {ia.order}"
        )
    if len(spec.psi) != ib.order:
        raise ValueError(
            f"psi length {len(spec.psi)} does not match order {ib.order}"
        )
    phi = tuple(x - 1 for x in spec.phi)
    psi = tuple(x - 1 for x in spec.psi)
    for k in range(q):
        na = ia.extents[phi[r + k]]
        nb = ib.extents[psi[s + k]]
        if na != nb:
            raise ValueError(
                f"contracted pair {k + 1} has mismatched extents {na} vs {nb}"
            )
    out_shape = tuple(ia.extents[phi[k]] for k in range(r)) + tuple(
        ib.extents[psi[k]] for k in range(s)
    )
    out = DenseTensor(out_shape if out_shape else (1,))
    _ttt_rec(0, q, r, s, phi, psi, ia, ib, out.miter())
    return out


def _ttt_rec(k, q, r, s, phi, psi, a, b, c):
    # The cursors are shared down the recursion, so every loop re-seats all
    # three positions per iteration (value-passing semantics).
    if k < r:
        da = phi[k]
        pa, pb0, pc = a.pos, b.pos, c.pos
        sa, sc = a.strides[da], c.strides[k]
        end = pa + a.extents[da] * sa
        while pa != end:
            a.pos, b.pos, c.pos = pa, pb0, pc
            _ttt_rec(k + 1, q, r, s, phi, psi, a, b, c)
            pa += sa
            pc += sc
    elif k < r + s:
        db = psi[k - r]
        pa0, pb, pc = a.pos, b.pos, c.pos
        sb, sc = b.strides[db], c.strides[k]
        end = pb + b.extents[db] * sb
        while pb != end:
            a.pos, b.pos, c.pos = pa0, pb, pc
            _ttt_rec(k + 1, q, r, s, phi, psi, a, b, c)
            pb += sb
            pc += sc
    elif q == 0:
        # Pure outer product: no bound indices left to sum.
        c.data[c.pos] = a.data[a.pos] * b.data[b.pos]
    elif k < r + s + q - 1:
        da, db = phi[k - s], psi[k - r]
        pa, pb, pc0 = a.pos, b.pos, c.pos
        sa, sb = a.strides[da], b.strides[db]
        end = pa + a.extents[da] * sa
        while pa != end:
            a.pos, b.pos, c.pos = pa, pb, pc0
            _ttt_rec(k + 1, q, r, s, phi, psi, a, b, c)
            pa += sa
            pb += sb
    else:
        da, db = phi[k - s], psi[k - r]
        dda, ddb, ddc = a.data, b.data, c.data
        pa, pb = a.pos, b.pos
        sa, sb = a.strides[da], b.strides[db]
        acc = ddc[c.pos]
        for _ in range(a.extents[da]):
            acc += dda[pa] * ddb[pb]
            pa += sa
            pb += sb
        ddc[c.pos] = acc


def reduce_ttv_to_ttt(p: int, m: int) -> ContractionSpec:
    """Spec whose ttt evaluation equals ``ttv(a, b, m)`` for order-p ``a``."""
    if not 1 <= m <= p:
        raise ValueError(f"mode {m} out of range 1..{p}")
    phi = tuple(k for k in range(1, p + 1) if k != m) + (m,)
    return ContractionSpec(1, phi, (1,))


def reduce_ttm_to_ttt(p: int, m: int) -> ContractionSpec:
    """Spec mapping ``ttm(a, B, m)`` onto ttt, with A's free dimensions in
    order and the contracted one last.

    For m = p the evaluation equals ttm directly; for smaller m the new
    dimension lands at the back instead of at position m, i.e. the result
    equals ttm followed by the cycle moving axis m to the last position.
    """
    if not 1 <= m <= p:
        raise ValueError(f"mode {m} out of range 1..{p}")
    phi = tuple(k for k in range(1, p + 1) if k != m) + (m,)
    return ContractionSpec(1, phi, (1, 2))


# -- named special cases --------------------------------------------------------------


def outer_product(a, b) -> DenseTensor:
    """All-pairs product: ttt with q = 0 and identity permutations."""
    ia, ib = _mit(a), _mit(b)
    spec = ContractionSpec(
        0,
        tuple(range(1, ia.order + 1)),
        tuple(range(1, ib.order + 1)),
    )
    return ttt(ia, ib, spec)


def inner_product_tensors(a, b):
    """Scalar ``sum_i a[i] * b[i]`` over tensors of equal shape."""
    return inner_product_flat(a, b, 0)


def frobenius_norm(a):
    """``sqrt(<a, a>)``; requires real elements."""
    return sqrt(inner_product_flat(a, a, 0))


# -- sequenced products ------------------------------------------------------------------


def _check_modes(modes, count: int, p: int, what: str):
    modes = [int(m) for m in modes]
    if len(modes) != count:
        raise ValueError(f"{what}: got {count} operands for modes {modes}")
    if any(not 1 <= m <= p for m in modes):
        raise ValueError(f"{what}: modes {modes} out of range 1..{p}")
    if any(m2 <= m1 for m1, m2 in zip(modes, modes[1:])):
        raise ValueError(f"{what}: modes {modes} must be strictly increasing")
    return modes


def times_vectors(a, vectors, modes=None, skip=None) -> DenseTensor:
    """Contract ``a`` with several vectors.

    Either ``modes`` lists the (strictly increasing, one-based) contraction
    modes for ``vectors``, or ``skip`` names the single mode left alone and
    the vectors cover all others (a full-length vector list is accepted
    too; the skipped entry is ignored).  Contractions run from the highest
    mode down so earlier modes keep their positions.  The result has order
    ``p - len(vectors)``; contracting everything yields shape (1,).
    """
    it = _mit(a)
    p = it.order
    if (modes is None) == (skip is None):
        raise ValueError("provide exactly one of modes or skip")
    vectors = list(vectors)
    if skip is not None:
        if not 1 <= skip <= p:
            raise ValueError(f"skip mode {skip} out of range 1..{p}")
        if len(vectors) == p:
            vectors = vectors[: skip - 1] + vectors[skip:]
        modes = [m for m in range(1, p + 1) if m != skip]
    modes = _check_modes(modes, len(vectors), p, "times_vectors")

    if not vectors:
        out = DenseTensor(it.extents)
        copy(it, out)
        return out
    result = it
    for m, vec in sorted(zip(modes, vectors), reverse=True, key=lambda x: x[0]):
        if result.order == 1:
            # Only the lowest mode can remain; contracting it is an inner
            # product, returned as a shape-(1,) tensor.
            rit = _mit(result)
            vit = _vector_mit(vec, rit.extents[0], "times_vectors vector")
            val = inner_product_flat(rit, vit, 0)
            result = DenseTensor.from_memory((1,), [val])
        else:
            result = ttv(result, vec, m)
    return result


def times_matrices(a, matrices, modes) -> DenseTensor:
    """Apply ``ttm`` for each (matrix, mode) pair, highest mode first; the
    order of ``a`` is preserved."""
    it = _mit(a)
    p = it.order
    matrices = list(matrices)
    modes = _check_modes(modes, len(matrices), p, "times_matrices")
    if not matrices:
        out = DenseTensor(it.extents)
        copy(it, out)
        return out
    result = it
    for m, mat in sorted(zip(modes, matrices), reverse=True, key=lambda x: x[0]):
        result = ttm(result, mat, m)
    return result
