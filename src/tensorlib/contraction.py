"""Tensor multiplication suite: transpose, ttv, ttm, ttt and friends.

Operands of any layout, offsets, or view-ness combine freely; no operand
is unfolded or transposed.  Modes and permutation tuples are one-based at
this interface; the kernels translate to zero-based dimensions internally.

``ttv``, ``ttm`` and ``ttt`` (and ``outer_product``, which is ttt with
q = 0) run on one engine built on :func:`~tensorlib.iterators.plan_fibers`.
Of the two operands, the one with fewer free positions is packed: the
bound (contracted) elements of each of its free positions are taken once
as list slices, which hold references, not new element objects.  The
other operand is streamed over its free loops, planned jointly with the
output's, and each output element is one fiber dot product,
``sum(map(mul, a_fiber, b_fiber))``.  ttm writes B's row dimension
through an output cursor whose strides put it at ``mode``, so no
transpose follows.  Besides the output tensor, the engine holds the
packed fibers of the smaller side, one bound fiber of the streamed side
at a time, and the values of one output fiber per packed fiber before
they are stored.  Each operand's reach is checked once per call: a
cursor that would read outside its buffer raises ``IndexError`` before
anything is written.

Every output element sums its bound elements in ascending index order,
with the last contracted pair fastest, left to right from 0, through the
builtin ``sum``.  Up to Python 3.11 that rounds exactly like a plain
``acc += a * b`` loop; from 3.12 ``sum`` compensates float rounding.
Either way the result is bit-identical across layouts, views and kernels
within one Python version (ttv, ttm and their ttt specs agree bit for
bit).  With no bound pair the element is the product ``a * b`` itself.

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
from itertools import chain
from math import prod, sqrt
from operator import mul
from typing import Iterable, Sequence, Tuple

from .elementwise import _copy, _mit, copy, inner_product_flat
from .iterators import MultiIterator, _plan, _positions, check_reach
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


def _vector_mit(b, expected_len: int, what: str) -> MultiIterator:
    """Read ``b`` as a vector: an order-1 tensor, or an (n, 1) column."""
    it = _mit(b)
    if it.order == 2 and it.extents[1] == 1:
        it = _sub(it, (0,))
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
    permuted = _sub(ia, [t - 1 for t in tau])
    out = DenseTensor(permuted.extents)
    _copy(permuted, out.miter())
    return out


# -- the contraction engine ------------------------------------------------------


def _sub(it: MultiIterator, dims) -> MultiIterator:
    """Cursor over ``it``'s dimensions ``dims`` (zero-based), in that order."""
    return MultiIterator(
        it.data,
        it.pos,
        [it.strides[d] for d in dims],
        [it.extents[d] for d in dims],
    )


def _bound_fibers(s: MultiIterator, s_bound, k: MultiIterator, k_bound):
    """``(length, strides, offsets)`` of the joint bound fibers of ``s``
    and ``k``, whose contracted pairs are ``zip(s_bound, k_bound)``.

    Every bound element is covered in summation order, ascending with the
    last pair fastest: fiber after fiber, each starting ``offsets[j]``
    from operand j's position.
    """
    if not s_bound:
        return 1, (1, 1), ([0], [0])
    ws, wk = s.strides[s_bound[0]], k.strides[k_bound[0]]
    if len(s_bound) == 1 and ws > 0 and wk > 0:
        # One pair with positive strides is a single fiber: no plan needed.
        return s.extents[s_bound[0]], (ws, wk), ([0], [0])
    # Planned in iteration order, so the last pair (dimension 1) is fastest.
    cursors = (_sub(s, s_bound[::-1]), _sub(k, k_bound[::-1]))
    plan = _plan(cursors, False)
    offsets = tuple(
        [p - it.pos for p in starts] for starts, it in zip(plan.starts, cursors)
    )
    return plan.length, plan.strides, offsets


def _gather(
    data: list, positions: Iterable[int], length: int, step: int, offsets
):
    """For each free position, its bound elements as one list of
    references: a slice, or the concatenation of several."""
    span = length * step
    if len(offsets) == 1:
        first = offsets[0]
        stop = first + span
        return (data[p + first : p + stop : step] for p in positions)
    return (
        list(chain.from_iterable(data[p + o : p + o + span : step] for o in offsets))
        for p in positions
    )


def _contract(ia, ib, c, a_free, a_bound, b_free, b_bound) -> None:
    """Write ``sum_bound A * B`` through the output cursor ``c`` (see the
    module docstring).

    ``a_free``/``b_free`` (zero-based) are A's and B's free dimensions,
    whose concatenation is ``c``'s dimension order; ``a_bound[k]`` and
    ``b_bound[k]`` form contracted pair k.
    """
    check_reach(ia)
    check_reach(ib)
    r = len(a_free)
    a_side = (ia, a_free, a_bound, c.strides[:r], [ia.extents[d] for d in a_free])
    b_side = (ib, b_free, b_bound, c.strides[r:], [ib.extents[d] for d in b_free])
    swap = prod(b_side[-1]) > prod(a_side[-1])
    s, s_free, s_bound, s_out, s_ext = b_side if swap else a_side
    k, k_free, k_bound, k_out, k_ext = a_side if swap else b_side
    # ``s`` and ``k`` were checked whole and ``c`` is the fresh output, so
    # the sub-cursors planned below need no check of their own.
    plan = _plan(
        (
            MultiIterator(s.data, s.pos, [s.strides[d] for d in s_free], s_ext),
            MultiIterator(c.data, c.pos, s_out, s_ext),
        ),
        True,
    )
    length, steps, offsets = _bound_fibers(s, s_bound, k, k_bound)
    k_pos = _positions(k.pos, [k.strides[d] for d in k_free], k_ext)
    packed = list(_gather(k.data, k_pos, length, steps[1], offsets[1]))
    k_outs = _positions(0, k_out, k_ext)
    nk, n, (ws, wc) = len(packed), plan.length, plan.strides
    # With no bound pair each fiber holds one element, and the output is
    # the product itself rather than 0 + a * b (which turns -0.0 into 0.0).
    reduce = sum if a_bound else next
    for ps, pc in zip(*plan.starts):
        # The fiber's outputs, packed fibers fastest, so that each streamed
        # slice is made once.
        streamed = _gather(
            s.data, range(ps, ps + n * ws, ws), length, steps[0], offsets[0]
        )
        if swap:
            values = [reduce(map(mul, kf, sf)) for sf in streamed for kf in packed]
        else:
            values = [reduce(map(mul, sf, kf)) for sf in streamed for kf in packed]
        for j, oc in enumerate(k_outs):
            c.data[pc + oc : pc + oc + n * wc : wc] = values[j::nk]


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
    m = mode - 1
    out = DenseTensor(ia.extents[:m] + ia.extents[m + 1 :])
    a_free = tuple(d for d in range(p) if d != m)
    _contract(ia, ib, out.miter(), a_free, (m,), (), (0,))
    return out


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
    out = DenseTensor(ia.extents[:m] + (ib.extents[0],) + ia.extents[m + 1 :])
    a_free = tuple(d for d in range(p) if d != m)
    # The output cursor lists B's row dimension last, at ``mode``'s stride.
    _contract(ia, ib, _sub(out.miter(), a_free + (m,)), a_free, (m,), (0,), (1,))
    return out


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
    _contract(
        ia, ib, _sub(out.miter(), range(r + s)), phi[:r], phi[r:], psi[:s], psi[s:]
    )
    return out


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
