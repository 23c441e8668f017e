"""Higher-order power method: best rank-one approximation of a real tensor.

Alternating sweeps update one unit vector per dimension: mode r's vector
becomes the tensor contracted with every other mode's current vector,
normalized.  The scale of the approximation is the last mode's norm of the
final sweep (all per-mode norms agree in the limit), and the estimate is
``lambda * u_1 o ... o u_p``.  Each sweep cannot increase the residual
``||A - B||_F``, which the optional residual tracking exposes.

Mode r's update contracts the highest modes first, and u_{r+1} .. u_p
change only later in the sweep, so its first p - r contractions,
``A x_p u_p ... x_{r+1} u_{r+1}``, are the ones mode 1 also starts with.
Each sweep therefore builds these prefixes once, from order p-1 down to
2, and starts every mode from its own: only the prefix build and mode p
read the full tensor, two passes per sweep for any p >= 2 instead of p.
Every mode runs the same ttv chain on the same inputs as contracting the
full tensor would, so the results are bit-identical to that.  The
prefixes hold n^(p-1) + ... + n^2 elements for extents n (1,024 floats
for a 32^3 tensor).

Real (floating-point) elements only; norms need square roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from operator import sub
from typing import List, Optional, Sequence

from .contraction import frobenius_norm, times_vectors, ttv
from .elementwise import transform_binary
from .tensor import DenseTensor

__all__ = ["DegenerateInputError", "HopmState", "hopm", "rank_one_compose", "residual"]


class DegenerateInputError(ArithmeticError):
    """A mode update has norm zero (e.g. the zero tensor) or a norm that is
    not finite (NaN or infinite data, or a norm that overflows), so
    normalization is impossible."""

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


def _normalized(vec: DenseTensor, norm: float) -> DenseTensor:
    return DenseTensor.from_memory(vec.shape, [x / norm for x in vec.data])


def hopm(
    a,
    max_sweeps: int = 50,
    u0: Optional[Sequence[DenseTensor]] = None,
    tol: float = 1e-10,
    track_residuals: bool = False,
) -> HopmState:
    """Run up to ``max_sweeps`` alternating sweeps on ``a``.

    ``u0`` optionally provides the p starting vectors (nonzero, matching
    lengths); the default is normalized all-ones.  The run stops early once
    the scale moves by less than ``tol`` between sweeps; ``tol`` must be
    >= 0 (``inf`` stops after the second sweep).  Raises
    :class:`DegenerateInputError` when a mode update has norm zero or a
    norm that is not finite.
    """
    p = a.order
    shape = a.shape
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if u0 is None:
        u = []
        for n in shape:
            v = n ** -0.5
            u.append(DenseTensor.from_memory((n,), [v] * n))
    else:
        u = [v.copy() for v in u0]
        if len(u) != p:
            raise ValueError(f"expected {p} start vectors, got {len(u)}")
        for r, (v, n) in enumerate(zip(u, shape), start=1):
            if v.order != 1 or v.shape != (n,):
                raise ValueError(
                    f"start vector {r} must have shape ({n},), got {v.shape}"
                )
            norm = frobenius_norm(v)
            if norm == 0.0:
                raise ValueError(f"start vector {r} is zero")
            u[r - 1] = _normalized(v, norm)

    l = [0.0] * p
    state = HopmState(u=u, l=l, sweeps=0, converged=False)
    previous = None
    for sweep in range(1, max_sweeps + 1):
        # prefix[k] = a x_p u_p ... x_{k+1} u_{k+1}, of order k.
        prefix = {p: a}
        for k in range(p - 1, 1, -1):
            prefix[k] = ttv(prefix[k + 1], u[k], k + 1)
        for r in range(p):
            k = min(max(r + 1, 2), p)
            w = times_vectors(prefix[k], u[:k], skip=r + 1)
            norm = frobenius_norm(w)
            if not 0.0 < norm < inf:
                raise DegenerateInputError(sweep, r + 1)
            l[r] = norm
            u[r] = _normalized(w, norm)
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
    """Tensor with ``B(i_1, .., i_p) = scale * u_1(i_1) * ... * u_p(i_p)``."""
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    # Dimension 1 varies fastest in the default layout, so each pass
    # multiplies the rows built so far by one more vector's elements: the
    # same ((scale * u_1) * u_2) * ... order as chained outer products.
    data = [scale]
    for v in vectors:
        data = [y * x for x in v.data for y in data]
    return DenseTensor.from_memory(tuple(v.size for v in vectors), data)


def residual(a, state: HopmState) -> float:
    """``||a - rank_one_compose(state.scale, state.u)||_F``."""
    diff = rank_one_compose(state.l[-1], state.u)
    transform_binary(a, diff, diff, sub)
    return frobenius_norm(diff)
