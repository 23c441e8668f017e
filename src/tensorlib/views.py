"""Non-owning rectangular selections of a dense tensor.

A view is defined by one :class:`Range` per target dimension: a
``(first, step, last)`` triplet selecting the indices ``first,
first + step, ..., <= last``.  The view keeps the target's order (single
indices become extent-1 dimensions) and addresses the target's buffer with
scaled strides plus a base displacement, so reads and writes go straight
through to the target.  Element access, cursors and structure properties
are the tensor's own, read through the view's frame.

Views follow their target's live layout: the frame is derived from the
ranges (resolved when the view is built) and the target's current
``meta``, again whenever ``relayout``, ``reshape`` or ``assign`` replaced
it.  A view so reads the same multi-indices after a relayout or a
same-shape assign.  Once the target's order changes or a range no longer
fits its index box, every access raises ``IndexError`` naming the
dimension, instead of reading a wrong element.

A view holds a strong reference to its target, which therefore lives at
least as long as the view.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .elementwise import _copy
from .layout import TensorMeta, memory_index
from .tensor import DenseTensor, _Strided

__all__ = ["Range", "TensorView", "classify_view"]

_FULL = object()


class Range:
    """Index selection triplet for one dimension.

    ``Range()`` selects the full dimension, ``Range(i)`` the single index
    ``i``, ``Range(f, l)`` every index from ``f`` to ``l``, and
    ``Range(f, t, l)`` every ``t``-th index from ``f`` up to ``l``.
    Bounds are validated against the target dimension when the view is
    built, and again whenever the target's layout or shape has changed.
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
        return _fit((self.first, self.step, self.last), offset, extent, dim)

    def __repr__(self):
        if self.is_full:
            return "Range()"
        return f"Range({self.first}, {self.step}, {self.last})"


def _fit(triplet, offset: int, extent: int, dim: int):
    """``triplet`` if its indices lie in ``[offset, offset + extent)``."""
    first, step, last = triplet
    if not (offset <= first and last < offset + extent):
        raise IndexError(
            f"range [{first}:{step}:{last}] out of bounds "
            f"[{offset}, {offset + extent}) in dimension {dim}"
        )
    return triplet


def _as_range(spec) -> Range:
    if isinstance(spec, Range):
        return spec
    if spec is None:
        return Range()
    if isinstance(spec, int):
        return Range(spec)
    raise ValueError(f"cannot interpret {spec!r} as a range")


class _Frame(NamedTuple):
    """A view's ``meta``: its extents and scaled strides, the target's
    offsets and layout, and the memory index ``gamma`` of its lower-bound
    corner in the target's buffer."""

    shape: Tuple[int, ...]
    offsets: Tuple[int, ...]
    layout: Tuple[int, ...]
    strides: Tuple[int, ...]
    gamma: int


def _frame(ranges, meta: TensorMeta) -> _Frame:
    """Frame of the resolved ``(first, step, last)`` ranges over a target
    described by ``meta``.

    Raises ``IndexError`` naming the dimension when the orders differ or a
    range does not fit the target's index box.
    """
    if len(ranges) != len(meta.shape):
        raise IndexError(
            f"view of order {len(ranges)} has no match for dimension "
            f"{min(len(ranges), len(meta.shape)) + 1} of its target, "
            f"now of order {len(meta.shape)}"
        )
    firsts, extents, strides = [], [], []
    for dim, (rng, o, n, w) in enumerate(
        zip(ranges, meta.offsets, meta.shape, meta.strides), start=1
    ):
        f, t, l = _fit(rng, o, n, dim)
        firsts.append(f)
        extents.append((l - f) // t + 1)
        strides.append(w * t)
    return _Frame(
        tuple(extents),
        meta.offsets,
        meta.layout,
        tuple(strides),
        memory_index(meta.strides, firsts, meta.offsets),
    )


class TensorView(_Strided):
    """Writable window into a :class:`DenseTensor`.

    The view's extent in dimension ``r`` is ``(last - first) // step + 1``;
    its strides are the target's scaled by the steps, and all its elements
    sit at ``gamma + sum_r stride[r]*step[r]*(i[r] - offset[r])`` in the
    target's buffer, where ``gamma`` is the memory index of the lower-bound
    corner.  Index offsets are inherited from the target.  ``meta`` follows
    the target's live layout (see the module docstring).
    """

    __slots__ = ("target", "ranges", "_source", "_frame")

    def __init__(self, target: DenseTensor, ranges):
        ranges = tuple(_as_range(s) for s in ranges)
        if len(ranges) != target.order:
            raise ValueError(
                f"expected {target.order} ranges, got {len(ranges)}"
            )
        self.target = target
        self.ranges = tuple(
            rng.resolve(o, n, dim)
            for dim, (rng, o, n) in enumerate(
                zip(ranges, target.offsets, target.shape), start=1
            )
        )
        self._source = target.meta
        self._frame = _frame(self.ranges, self._source)

    @property
    def meta(self) -> _Frame:
        meta = self.target.meta
        if meta is not self._source:
            self._frame = _frame(self.ranges, meta)
            self._source = meta
        return self._frame

    @property
    def data(self) -> list:
        return self.target.data

    @property
    def gamma(self) -> int:
        return self.meta.gamma

    def __getitem__(self, key):
        return self.target.data[self._key_to_memory(key)]

    def __setitem__(self, key, value):
        self.target.data[self._key_to_memory(key)] = value

    def materialize(self) -> DenseTensor:
        """Fresh default-layout, zero-offset tensor holding the view's
        elements."""
        out = DenseTensor(self.shape)
        _copy(self.miter(), out.miter())
        return out

    def __repr__(self):
        return f"TensorView(target={self.target!r}, ranges={self.ranges})"


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
