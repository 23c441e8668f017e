"""Non-owning rectangular selections of a dense tensor.

A view is defined by one :class:`Range` per target dimension: a
``(first, step, last)`` triplet selecting the indices ``first,
first + step, ..., <= last``.  The view keeps the target's order (single
indices become extent-1 dimensions) and addresses the target's buffer with
scaled strides plus a base displacement, so reads and writes go straight
through to the target.

A view holds a strong reference to its target, which therefore lives at
least as long as the view.
"""

from __future__ import annotations

from .elementwise import _copy
from .iterators import MultiIterator, StrideIterator
from .layout import memory_index
from .tensor import DenseTensor

__all__ = ["Range", "TensorView", "classify_view"]

_FULL = object()


class Range:
    """Index selection triplet for one dimension.

    ``Range()`` selects the full dimension, ``Range(i)`` the single index
    ``i``, ``Range(f, l)`` every index from ``f`` to ``l``, and
    ``Range(f, t, l)`` every ``t``-th index from ``f`` up to ``l``.
    Bounds are validated against the target dimension when the view is
    built.
    """

    __slots__ = ("first", "step", "last")

    def __init__(self, *args):
        if len(args) == 0:
            self.first = self.last = _FULL
            self.step = 1
            return
        if len(args) == 1:
            first, step, last = args[0], 1, args[0]
        elif len(args) == 2:
            first, step, last = args[0], 1, args[1]
        elif len(args) == 3:
            first, step, last = args
        else:
            raise ValueError("Range takes at most three indices")
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if first > last:
            raise ValueError(f"range first {first} exceeds last {last}")
        self.first = int(first)
        self.step = int(step)
        self.last = int(last)

    @property
    def is_full(self) -> bool:
        return self.first is _FULL

    def resolve(self, offset: int, extent: int, dim: int):
        """Concrete (first, step, last) against one target dimension."""
        if self.is_full:
            return offset, 1, offset + extent - 1
        if not (offset <= self.first and self.last < offset + extent):
            raise IndexError(
                f"range [{self.first}:{self.step}:{self.last}] out of bounds "
                f"[{offset}, {offset + extent}) in dimension {dim}"
            )
        return self.first, self.step, self.last

    def __repr__(self):
        if self.is_full:
            return "Range()"
        return f"Range({self.first}, {self.step}, {self.last})"


def _as_range(spec) -> Range:
    if isinstance(spec, Range):
        return spec
    if spec is None:
        return Range()
    if isinstance(spec, int):
        return Range(spec)
    raise ValueError(f"cannot interpret {spec!r} as a range")


class TensorView:
    """Writable window into a :class:`DenseTensor`.

    The view's extent in dimension ``r`` is ``(last - first) // step + 1``;
    its strides are the target's scaled by the steps, and all its elements
    sit at ``gamma + sum_r stride[r]*step[r]*(i[r] - offset[r])`` in the
    target's buffer, where ``gamma`` is the memory index of the lower-bound
    corner.  Index offsets are inherited from the target.
    """

    __slots__ = ("target", "ranges", "_shape", "_strides", "gamma")

    def __init__(self, target: DenseTensor, ranges):
        ranges = tuple(_as_range(s) for s in ranges)
        if len(ranges) != target.order:
            raise ValueError(
                f"expected {target.order} ranges, got {len(ranges)}"
            )
        firsts, steps, lasts, extents = [], [], [], []
        for dim, (rng, o, n) in enumerate(
            zip(ranges, target.offsets, target.shape), start=1
        ):
            f, t, l = rng.resolve(o, n, dim)
            firsts.append(f)
            steps.append(t)
            lasts.append(l)
            extents.append((l - f) // t + 1)
        self.target = target
        self.ranges = tuple(zip(firsts, steps, lasts))
        self._shape = tuple(extents)
        self._strides = tuple(
            w * t for w, t in zip(target.strides, steps)
        )
        self.gamma = memory_index(target.strides, firsts, target.offsets)

    # -- structure (mirrors DenseTensor) ------------------------------------

    @property
    def shape(self):
        return self._shape

    @property
    def order(self) -> int:
        return len(self._shape)

    @property
    def offsets(self):
        return self.target.offsets

    @property
    def layout(self):
        return self.target.layout

    @property
    def strides(self):
        return self._strides

    @property
    def size(self) -> int:
        s = 1
        for n in self._shape:
            s *= n
        return s

    # -- element access -------------------------------------------------------

    def _key_to_memory(self, key) -> int:
        if isinstance(key, int):
            key = (key,)
        else:
            key = tuple(key)
        if len(key) != self.order:
            raise ValueError(f"expected {self.order} indices, got {len(key)}")
        j = self.gamma
        for r, (i, o, n, w) in enumerate(
            zip(key, self.offsets, self._shape, self._strides)
        ):
            if not o <= i < o + n:
                raise IndexError(
                    f"index {i} out of bounds [{o}, {o + n}) in view dimension {r + 1}"
                )
            j += w * (i - o)
        return j

    def __getitem__(self, key):
        return self.target.data[self._key_to_memory(key)]

    def __setitem__(self, key, value):
        self.target.data[self._key_to_memory(key)] = value

    # -- iterators ---------------------------------------------------------------

    def miter(self) -> MultiIterator:
        return MultiIterator(self.target.data, self.gamma, self._strides, self._shape)

    def dim_begin(self, dim, at=None) -> StrideIterator:
        """Stride iterator over view dimension ``dim`` (one-based); strides
        and base already account for the range steps and corner."""
        return StrideIterator(
            self.target.data, self._dim_base(dim, at), self._strides[dim - 1]
        )

    def dim_end(self, dim, at=None) -> StrideIterator:
        w = self._strides[dim - 1]
        pos = self._dim_base(dim, at) + self._shape[dim - 1] * w
        return StrideIterator(self.target.data, pos, w)

    def _dim_base(self, dim, at) -> int:
        if not 1 <= dim <= self.order:
            raise ValueError(f"dimension {dim} out of range 1..{self.order}")
        if at is None:
            return self.gamma
        if len(at) != self.order:
            raise ValueError(f"expected {self.order} indices, got {len(at)}")
        pos = self.gamma
        for r in range(self.order):
            if r != dim - 1:
                pos += self._strides[r] * (at[r] - self.offsets[r])
        return pos

    # -- derived ------------------------------------------------------------------

    def materialize(self) -> DenseTensor:
        """Fresh default-layout, zero-offset tensor holding the view's
        elements."""
        out = DenseTensor(self._shape)
        _copy(self.miter(), out.miter())
        return out

    def __repr__(self):
        return (
            f"TensorView(shape={self._shape}, gamma={self.gamma}, "
            f"strides={self._strides})"
        )


def classify_view(v: TensorView) -> str:
    """``"slice"`` if exactly two extents exceed one and each matches its
    target extent, ``"fiber"`` if exactly one extent exceeds one, else
    ``"general"``."""
    wide = [
        (nv, nt)
        for nv, nt in zip(v.shape, v.target.shape)
        if nv > 1
    ]
    if len(wide) == 2 and all(nv == nt for nv, nt in wide):
        return "slice"
    if len(wide) == 1:
        return "fiber"
    return "general"
