"""Tensor multiplication suite: transpose, ttv, ttm, ttt and friends.

Operands of any layout, offsets, or view-ness combine freely; no operand
is unfolded or transposed.  Modes and permutation tuples are one-based at
this interface; the kernels translate to zero-based dimensions internally.

``ttv``, ``ttm``, ``ttt`` and ``outer_product`` check their arguments and
make one call to an engine built on the fiber planner, which allocates the
output.  The operand with fewer free positions is packed, the other
streamed; every product is streamed element times packed element.  The
engine has three output loops.  With no bound pair (``outer_product``,
ttt with q = 0) the streamed elements are read once, in output order, and
each packed element ``x`` stores ``[v * x for v in streamed]`` into one
run of the output.  Otherwise each output element is one fiber dot
product, ``sum(map(mul, streamed_fiber, packed_fiber))``; the streamed
free loops are planned jointly with the output's, smallest streamed
stride innermost, so consecutive outputs read adjacent fibers (the order
never changes any output's sum).  One reader, ``_gather``, takes each
packed free position's bound elements once, as one list of references: a
slice, or the concatenation of several where the bound pairs merge into
no single fiber.  With one packed fiber and one streamed fiber per output
(every ttv and ``times_vectors`` step, one-row ttm) each output is one
comprehension step over the inline slice ``data[p : p + span : step]``;
every other step (ttm with more rows, every ``times_matrices`` step, most
ttt specs) reads each row of outputs' streamed elements through
``_gather`` too, one fiber at a time.  The read rule has one exception:
where each streamed fiber is one slice whose elements lie at least 4096
slots (32 KiB of list pointers) apart, and consecutive streamed fibers
lie nearer than that, the gathered loop reads them through
:func:`~tensorlib.iterators._tiles` instead (read one fiber at a time,
each element of such a fiber lies on a cache line and a memory page of
its own).  That reader takes at most 4096 elements at a time, one slice
across a tile's fibers per fiber element, and transposes them by ``zip``
into one tuple per fiber with its elements in their own order, so every
sum sees the same elements in the same order and only the memory order
of the reads changes.  A tile must hold two fibers, so longer fibers are
sliced one at a time.  Packing B exchanges the operands, which changes no
bit: int and float products commute exactly.  ttm places B's row
dimension at ``mode`` through the output strides, so no transpose
follows.  Besides the output, the engine holds the packed fibers, one
streamed fiber (or, where it reads in tiles, one tile of at most 4096
references and the tuple of one fiber) and one row's values.  Every
operand takes its cursor from :func:`~tensorlib.elementwise._mit`, which
checks once per call that it stays inside its buffer (``IndexError``
before anything is written; the ``times_*`` chains check every vector or
matrix before their first step); the engine checks nothing again.

Every output element sums its bound elements in ascending index order,
with the last contracted pair fastest, left to right from 0, through the
builtin ``sum``.  Up to Python 3.11 that rounds exactly like a plain
``acc += a * b`` loop; from 3.12 ``sum`` compensates float rounding.
Either way the result is bit-identical across layouts, views and kernels
within one Python version (ttv, ttm and their ttt specs agree bit for
bit).  With no bound pair the element is the product ``a * b`` itself.

``frobenius_norm`` is no dot product: it is ``math.hypot`` of the
``hypot`` of each 4096-element run of the operand's elements in iteration
order, a C loop that scales its input.  Runs are counted by iteration-order
position, so the norm is bit-identical across layouts and views.  It is
accurately rounded and neither overflows nor underflows where the exact
norm is a finite nonzero float; it can differ from
``sqrt(inner_product_tensors(a, a))`` by that sum's rounding error.

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
from itertools import chain, islice
from math import hypot, prod
from operator import mul
from typing import Iterable, Sequence, Tuple

from .elementwise import _in_order, _mit, _values, inner_product_flat
from .iterators import _TILE, MultiIterator, _plan, _positions, _tiled, _tiles
from .layout import _as_indices, _index, _listed, _permutation
from .tensor import DenseTensor, _materialize

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
    tau = _permutation(tau, "tau", ia.order)
    return _materialize(_sub(ia, [t - 1 for t in tau]))


# -- the contraction engine ------------------------------------------------------


def _sub(it: MultiIterator, dims, pos=None) -> MultiIterator:
    """Cursor over ``it``'s dimensions ``dims`` (zero-based), in that order,
    from ``it``'s position or from ``pos``."""
    return MultiIterator(
        it.data,
        it.pos if pos is None else pos,
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
    ws, wk = s.strides[s_bound[0]], k.strides[k_bound[0]]
    if len(s_bound) == 1 and ws > 0 and wk > 0:
        # One pair with positive strides is a single fiber: no plan needed.
        return s.extents[s_bound[0]], (ws, wk), ([0], [0])
    # From position 0 in iteration order: the last pair (dimension 1) fastest.
    return _plan((_sub(s, s_bound[::-1], 0), _sub(k, k_bound[::-1], 0)))


def _gather(data: list, positions: Iterable[int], length: int, step: int, offsets):
    """Yield, one at a time, each free position's bound elements as one list
    of references (a slice, or the concatenation of several): the reader of
    all bound elements but the one-fiber loop's streamed ones."""
    span = length * step
    if len(offsets) == 1:
        first = offsets[0]
        stop = first + span
        for p in positions:
            yield data[p + first : p + stop : step]
    else:
        for p in positions:
            fibers = (data[p + o : p + o + span : step] for o in offsets)
            yield list(chain.from_iterable(fibers))


def _contract(ia, ib, a_free, a_bound, b_free, b_bound, dims=None) -> DenseTensor:
    """``sum_bound A * B`` as a new tensor, written by one of three output
    loops (see the module docstring).

    ``a_free``/``b_free`` (zero-based) are A's and B's free dimensions and
    ``a_bound[k]``/``b_bound[k]`` form contracted pair k.  The free
    dimensions, A's then B's, are the output's dimensions in that order,
    or at the output positions ``dims`` lists; with none free the output
    has shape (1,).
    """
    free = [ia.extents[d] for d in a_free] + [ib.extents[d] for d in b_free]
    if dims is None:
        out = DenseTensor(free or (1,))
        strides = out.meta.strides
    else:
        shape = [0] * len(dims)
        for d, n in zip(dims, free):
            shape[d] = n
        out = DenseTensor(shape)
        strides = [out.meta.strides[d] for d in dims]
    r = len(a_free)
    sides = [
        (ia, a_free, a_bound, free[:r], strides[:r]),
        (ib, b_free, b_bound, free[r:], strides[r:]),
    ]
    # The side with fewer free positions is packed (k), the other streamed;
    # products commute, so streaming B multiplies b * a with the same bits.
    if prod(free[r:]) > prod(free[:r]):
        sides.reverse()
    (s, s_free, s_bound, s_ext, s_out), (k, k_free, k_bound, k_ext, k_out) = sides
    sc = MultiIterator(s.data, s.pos, [s.strides[d] for d in s_free], s_ext)
    if k_free:
        k_pos = _positions(k.pos, [k.strides[d] for d in k_free], k_ext)
        k_outs = _positions(0, k_out, k_ext)
    else:
        # One packed fiber: its outputs are each output fiber, in order.
        k_pos, k_outs = (k.pos,), (0,)
    data, sdata = out.data, s.data
    if not s_bound:
        # No bound pair: each output is the product itself, not 0 + a * b
        # (which turns -0.0 into 0.0).  Without ``dims`` (every q = 0 call)
        # the streamed side's outputs are one run of the fresh output.
        sf, w = list(_values(_plan((sc,)), 0, sc)), s_out[0]
        for x, oc in zip(map(k.data.__getitem__, k_pos), k_outs):
            data[oc : oc + len(sf) * w : w] = [v * x for v in sf]
        return out
    # The reorder keys on the cursor that is read, the streamed one:
    # consecutive outputs then read adjacent bound fibers.
    plan = _plan((sc, MultiIterator(data, 0, s_out, s_ext)), reorder=True)
    n, (ws, wc), starts = plan.length, plan.strides, zip(*plan.starts)
    length, steps, offsets = _bound_fibers(s, s_bound, k, k_bound)
    packed, step = list(_gather(k.data, k_pos, length, steps[1], offsets[1])), steps[0]
    # Streamed fibers that are one slice each but far-strided are read in
    # tiles, by the gathered loop below.  The step is tested inline first,
    # so that small calls pay for no function call.
    tiled = step >= _TILE and len(offsets[0]) == 1 and _tiled(n, ws, length, step)
    if len(packed) == 1 and len(offsets[0]) == 1 and not tiled:
        # One packed fiber, one streamed fiber per output (ttv, one-row
        # ttm): each output is one comprehension step over an inline slice.
        (kf,), (first,), span = packed, offsets[0], length * step
        for ps, pc in starts:
            lo = ps + first
            data[pc : pc + n * wc : wc] = [
                sum(map(mul, sdata[p : p + span : step], kf))
                for p in range(lo, lo + n * ws, ws)
            ]
        return out
    # Each row of outputs gathers its streamed fibers once, one at a time
    # (or one tile at a time); packed fibers run fastest, so output j of a
    # row is every nk-th value.
    nk = len(packed)
    for ps, pc in starts:
        if tiled:
            streamed = _tiles(sdata, ps + offsets[0][0], n, ws, length, step)
        else:
            streamed = _gather(sdata, range(ps, ps + n * ws, ws), length, step, offsets[0])
        values = [sum(map(mul, sf, kf)) for sf in streamed for kf in packed]
        for j, oc in enumerate(k_outs):
            data[pc + oc : pc + oc + n * wc : wc] = values[j::nk]
    return out


# -- tensor times vector, tensor times matrix -----------------------------------------


def _mode(ia: MultiIterator, mode, what: str) -> int:
    """``mode`` (one-based) of ``ia``, checked for ``what``."""
    p = ia.order
    if p < 2:
        raise ValueError(f"{what} requires order >= 2, got {p}")
    return _index(mode, "mode", 1, p)


def _mode_product(ia: MultiIterator, ib: MultiIterator, m: int) -> DenseTensor:
    """ttv (``ib`` a checked vector cursor) or ttm (a checked matrix
    cursor) at the zero-based mode ``m`` of ``ia``; ttv of an order-1
    ``ia`` gives shape (1,)."""
    a_free = (*range(m), *range(m + 1, ia.order))
    if ib.order == 1:
        return _contract(ia, ib, a_free, (m,), (), (0,))
    # B's row dimension goes to the output at mode m.
    return _contract(ia, ib, a_free, (m,), (0,), (1,), a_free + (m,))


def ttv(a, b, mode: int) -> DenseTensor:
    """Contract dimension ``mode`` (one-based) of ``a`` with the vector
    ``b``:

        C(i_1, .., i_{m-1}, i_{m+1}, .., i_p) = sum_k A(.., k, ..) * b(k)

    ``a`` must have order >= 2; the result drops the contracted dimension.
    """
    ia = _mit(a)
    m = _mode(ia, mode, "ttv") - 1
    return _mode_product(ia, _vector_mit(b, ia.extents[m], "ttv vector"), m)


def ttm(a, bmat, mode: int) -> DenseTensor:
    """Contract dimension ``mode`` of ``a`` with the columns of the matrix
    ``bmat`` of shape (n_new, n_mode):

        C(.., j at mode, ..) = sum_k A(.., k at mode, ..) * B(j, k)

    The result keeps the order of ``a`` with extent n_new at ``mode``.
    No implicit transposition: rows of B index the new dimension.
    """
    ia = _mit(a)
    m = _mode(ia, mode, "ttm") - 1
    return _mode_product(ia, _matrix_mit(bmat, ia.extents[m], m), m)


def _matrix_mit(bmat, n: int, m: int) -> MultiIterator:
    """Read ``bmat`` as ttm's matrix against the zero-based mode ``m``, of
    extent ``n``."""
    ib = _mit(bmat)
    if ib.order != 2:
        raise ValueError(f"ttm matrix must have order 2, got {ib.order}")
    if ib.extents[1] != n:
        raise ValueError(
            f"matrix columns {ib.extents[1]} do not match extent {n} of mode {m + 1}"
        )
    return ib


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
        object.__setattr__(self, "q", _index(self.q, "q", 0))
        object.__setattr__(self, "phi", _permutation(self.phi, "phi"))
        object.__setattr__(self, "psi", _permutation(self.psi, "psi"))
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
    for name, perm, it in (("phi", spec.phi, ia), ("psi", spec.psi, ib)):
        if len(perm) != it.order:
            raise ValueError(
                f"{name} length {len(perm)} does not match order {it.order}"
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
    return _contract(ia, ib, phi[:r], phi[r:], psi[:s], psi[s:])


def _free_then(p: int, m: int) -> Tuple[int, ...]:
    """The one-based phi listing an order-p operand's dimensions except
    ``m`` in order, then ``m``."""
    p = _index(p, "order", 1)
    m = _index(m, "mode", 1, p)
    return tuple(k for k in range(1, p + 1) if k != m) + (m,)


def reduce_ttv_to_ttt(p: int, m: int) -> ContractionSpec:
    """Spec whose ttt evaluation equals ``ttv(a, b, m)`` for order-p ``a``."""
    return ContractionSpec(1, _free_then(p, m), (1,))


def reduce_ttm_to_ttt(p: int, m: int) -> ContractionSpec:
    """Spec mapping ``ttm(a, B, m)`` onto ttt, with A's free dimensions in
    order and the contracted one last.

    For m = p the evaluation equals ttm directly; for smaller m the new
    dimension lands at the back instead of at position m, i.e. the result
    equals ttm followed by the cycle moving axis m to the last position.
    """
    return ContractionSpec(1, _free_then(p, m), (1, 2))


# -- named special cases --------------------------------------------------------------


def outer_product(a, b) -> DenseTensor:
    """All-pairs product: ttt with q = 0 and identity permutations."""
    ia, ib = _mit(a), _mit(b)
    return _contract(ia, ib, range(ia.order), (), range(ib.order), ())


def inner_product_tensors(a, b):
    """Scalar ``sum_i a[i] * b[i]`` over tensors of equal shape."""
    return inner_product_flat(a, b, 0)


_NORM_CHUNK = 4096


def frobenius_norm(a) -> float:
    """``sqrt(<a, a>)`` for real elements: ``math.hypot`` of the ``hypot``
    of each 4096-element run of ``a``'s elements in iteration order, one
    run held at a time (see the module docstring for its rounding)."""
    it, values = _in_order(a)
    values, chunks = iter(values), range(0, prod(it.extents), _NORM_CHUNK)
    return hypot(*[hypot(*islice(values, _NORM_CHUNK)) for _ in chunks])


# -- sequenced products ------------------------------------------------------------------


def _chain(it: MultiIterator, operands, modes, what: str, check) -> DenseTensor:
    """Check every operand by ``check(operand, m)`` (``m`` its zero-based
    mode), highest mode first, then take the mode products in that order,
    so that lower modes keep their positions; no operands: a copy of ``it``."""
    modes, p = list(_as_indices(modes, f"{what} modes")), it.order
    if len(modes) != len(operands):
        raise ValueError(f"{what}: got {len(operands)} operands for modes {modes}")
    if any(not 1 <= m <= p for m in modes):
        raise ValueError(f"{what}: modes {modes} out of range 1..{p}")
    if any(m2 <= m1 for m1, m2 in zip(modes, modes[1:])):
        raise ValueError(f"{what}: modes {modes} must be strictly increasing")
    if not operands:
        return _materialize(it)
    steps = [(check(x, m - 1), m - 1) for m, x in zip(modes[::-1], operands[::-1])]
    result = _mode_product(it, *steps[0])
    for ib, m in steps[1:]:
        result = _mode_product(result.miter(), ib, m)
    return result


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
    vectors = _listed(vectors, "vectors", "vectors")
    if skip is not None:
        (skip,) = _as_indices((skip,), "skip")
        _index(skip, "skip mode", 1, p)
        if len(vectors) == p:
            vectors = vectors[: skip - 1] + vectors[skip:]
        modes = [m for m in range(1, p + 1) if m != skip]
    check = lambda v, m: _vector_mit(v, it.extents[m], "times_vectors vector")
    return _chain(it, vectors, modes, "times_vectors", check)


def times_matrices(a, matrices, modes) -> DenseTensor:
    """Apply ``ttm`` for each (matrix, mode) pair, highest mode first; the
    order of ``a`` is preserved."""
    it = _mit(a)

    def check(bmat, m):
        if it.order < 2:  # raise as ttm does
            _mode(it, m + 1, "ttm")
        return _matrix_mit(bmat, it.extents[m], m)

    matrices = _listed(matrices, "matrices", "matrices")
    return _chain(it, matrices, modes, "times_matrices", check)
