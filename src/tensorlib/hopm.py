"""Higher-order power method: best rank-one approximation of a real tensor.

Alternating sweeps update one unit vector per dimension: mode r's vector
becomes the tensor contracted with every other mode's current vector,
normalized.  The scale of the approximation is the last mode's norm of the
final sweep (all per-mode norms agree in the limit), and the estimate is
``lambda * u_1 o ... o u_p``.  Each sweep cannot increase the residual
``||A - B||_F``, which the optional residual tracking exposes.

Every update contracts one order-(p-1) partial contraction
``x = A x_m u_m``, where the key mode m is the mode updated just before x
was built (mode p, from the start vectors, before sweep 1).  Mode r != m
contracts x with the current vectors of the other p - 2 modes, highest
first; u_m is unchanged until the sweep reaches mode m, which rebuilds x
from A keyed on the mode just updated.  Every update therefore uses the
latest vector of every other mode (exact Gauss-Seidel HOPM), and one
full-tensor ttv serves p - 1 updates: ceil(k p / (p - 1)) passes over the
tensor in k sweeps, where sharing only each sweep's prefix
``A x_p u_p ... x_{r+1} u_{r+1}`` takes 2k and contracting the full
tensor for every update k p.  p = 2 keeps two passes per sweep and p = 1
contracts nothing.  x holds n^(p-1) elements for extents n (1,024 floats
for a 32^3 tensor).  This is the partial-contraction reuse of Phan,
Tichavsky and Cichocki (IEEE TSP 2013).

Sweep 1 runs the same ttv chains as contracting the full tensor highest
mode first.  From sweep 2 on, mode r contracts mode m first, so lambda,
the vectors and the residual differ from the highest-first order in the
last bits; they remain bit-identical across layouts and views.

Real (floating-point) elements only; norms need square roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import inf
from typing import List, Optional, Sequence

from .contraction import frobenius_norm, times_vectors, ttv
from .elementwise import _in_order, _mit
from .layout import _index
from .tensor import DenseTensor

__all__ = ["DegenerateInputError", "HopmState", "hopm", "rank_one_compose", "residual"]


class DegenerateInputError(ArithmeticError):
    """A mode update has norm zero (e.g. the zero tensor) or a norm that is
    not finite (NaN or infinite data, or a norm beyond the float range:
    elements whose squares overflow are fine), so normalization is
    impossible."""

    def __init__(self, sweep: int, mode: int):
        super().__init__(
            f"zero or non-finite norm at normalization (sweep {sweep}, mode {mode})"
        )
        self.sweep = sweep
        self.mode = mode


@dataclass
class HopmState:
    """Result of a power-method run.

    ``u`` holds one unit vector per dimension, ``l`` the per-mode norms of
    the final sweep; the approximation scale is ``l[-1]``.  The histories
    record ``l[-1]`` (and, when tracked, the residual) after each sweep.
    """

    u: List[DenseTensor]
    l: List[float]
    sweeps: int
    converged: bool
    lambda_history: List[float] = field(default_factory=list)
    residual_history: List[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        return self.l[-1]


def _normalized(vec, norm: float) -> DenseTensor:
    """``vec / norm`` as a new vector; ``vec`` may be a view or cursor."""
    it, values = _in_order(vec)
    return DenseTensor.from_memory(it.extents, [x / norm for x in values])


def hopm(
    a,
    max_sweeps: int = 50,
    u0: Optional[Sequence[DenseTensor]] = None,
    tol: float = 1e-10,
    track_residuals: bool = False,
) -> HopmState:
    """Run up to ``max_sweeps`` alternating sweeps on ``a``.

    ``a`` and the optional p starting vectors ``u0`` (nonzero, matching
    lengths; the default is normalized all-ones) are tensors, views or
    cursors.  The run stops early once the scale moves by less than
    ``tol`` between sweeps; ``tol`` must be an int or float >= 0 (``inf``
    stops after the second sweep).
    Raises :class:`DegenerateInputError` when a mode update has norm zero
    or a norm that is not finite.
    """
    shape = _mit(a).extents
    p = len(shape)
    max_sweeps = _index(max_sweeps, "max_sweeps", 1)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if u0 is None:
        u = [DenseTensor.from_memory((n,), [n ** -0.5] * n) for n in shape]
    else:
        u = list(u0)
        if len(u) != p:
            raise ValueError(f"expected {p} start vectors, got {len(u)}")
        for r, (v, n) in enumerate(zip(u, shape), start=1):
            extents = _mit(v).extents
            if extents != (n,):
                raise ValueError(f"start vector {r} must have shape ({n},), got {extents}")
            norm = frobenius_norm(v)
            if norm == 0.0:
                raise ValueError(f"start vector {r} is zero")
            u[r - 1] = _normalized(v, norm)

    l = [0.0] * p
    state = HopmState(u=u, l=l, sweeps=0, converged=False)
    previous = None
    # x = a x_key u_key leaves mode key out.  An order-1 tensor has no mode
    # to spare: x is a itself and key = 2 lies past its only mode.
    key, x = (p, ttv(a, u[-1], p)) if p > 1 else (2, a)
    for sweep in range(1, max_sweeps + 1):
        for r in range(1, p + 1):
            if r == key:
                # u_key is about to change: rebuild x without the mode
                # just updated.
                key = r - 1 or p
                x = ttv(a, u[key - 1], key)
            w = times_vectors(x, u[: key - 1] + u[key:], skip=r - (r > key))
            norm = frobenius_norm(w)
            if not 0.0 < norm < inf:
                raise DegenerateInputError(sweep, r)
            l[r - 1] = norm
            u[r - 1] = _normalized(w, norm)
        state.sweeps = sweep
        lam = l[-1]
        state.lambda_history.append(lam)
        if track_residuals:
            state.residual_history.append(residual(a, state))
        if previous is not None and abs(lam - previous) < tol:
            state.converged = True
            break
        previous = lam
    return state


def rank_one_compose(scale: float, vectors: Sequence[DenseTensor]) -> DenseTensor:
    """Tensor with ``B(i_1, .., i_p) = scale * u_1(i_1) * ... * u_p(i_p)``;
    the vectors may be tensors, views or cursors."""
    try:
        p = len(vectors)
    except TypeError:
        raise TypeError("vectors must be a sequence of vectors, "
                        f"got {type(vectors).__name__}") from None
    if p == 0:
        raise ValueError("need at least one vector")
    return DenseTensor.from_memory(_lengths(vectors), _rows(scale, vectors))


def _lengths(vectors: Sequence[DenseTensor]) -> tuple:
    """Each vector's length; ``ValueError`` naming the first not of order 1."""
    shapes = [_mit(v).extents for v in vectors]
    for r, shape in enumerate(shapes, start=1):
        if len(shape) != 1:
            raise ValueError(f"vector {r} must have order 1, got shape {shape}")
    return tuple(shape[0] for shape in shapes)


def _rows(scale: float, vectors: Sequence[DenseTensor]) -> list:
    # Dimension 1 varies fastest in the default layout, so each pass
    # multiplies the rows built so far by one more vector's elements, read
    # in iteration order (views included): the same ((scale * u_1) * u_2)
    # * ... order as chained outer products.
    rows = [scale]
    for v in vectors:
        rows = [y * x for x in _in_order(v)[1] for y in rows]
    return rows


def residual(a, state: HopmState) -> float:
    """``||a - rank_one_compose(state.scale, state.u)||_F``, in one pass;
    ``a`` may be a tensor, view or cursor.

    The rows ``scale * u_1 o ... o u_{p-1}`` are built by ``_rows``, as in
    :func:`rank_one_compose` (n^(p-1) elements for extents n); each
    element of the last vector then scales them against the next row of
    ``a``'s elements in iteration order, so every difference has the bits
    of ``a - rank_one_compose(...)`` without the composed tensor, whatever
    the layout of ``a``.  The norm reads the differences in that order.
    """
    if not isinstance(state, HopmState):
        raise TypeError(f"state must be a HopmState, got {type(state).__name__}")
    vectors = state.u
    shape = _lengths(vectors)
    it, values = _in_order(a)
    if it.extents != shape:
        raise ValueError(f"shape mismatch: {shape} vs {it.extents}")
    rows = _rows(state.l[-1], vectors[:-1])
    values, m = iter(values), len(rows)
    diff = [
        v - y * x
        for x in _in_order(vectors[-1])[1]
        for v, y in zip(islice(values, m), rows)
    ]
    return frobenius_norm(DenseTensor.from_memory((len(diff),), diff))
