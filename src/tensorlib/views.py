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

A view's target may itself be a view: the new view's frame then starts
from the target view's corner ``gamma`` in the shared buffer, and it
follows the root tensor's layout through the target's own frame.

A view holds a strong reference to its target, which therefore lives at
least as long as the view.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .elementwise import _mit
from .layout import TensorMeta, _as_indices, _index
from .tensor import DenseTensor, _materialize, _Strided

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
        if not args:
            self.first = self.last = _FULL
            self.step = 1
            return
        if len(args) > 3:
            raise ValueError("Range takes at most three indices")
        first, step, last = args if len(args) == 3 else (args[0], 1, args[-1])
        if not type(first) is type(step) is type(last) is int or step < 1:
            # Anything but plain ints with a positive step: the shared rules.
            first, step, last = _as_indices((first, step, last), "Range indices")
            _index(step, "step", 1)
        if first > last:
            raise ValueError(f"range first {first} exceeds last {last}")
        self.first = first
        self.step = step
        self.last = last

    @property
    def is_full(self) -> bool:
        return self.first is _FULL

    def __repr__(self):
        if self.is_full:
            return "Range()"
        return f"Range({self.first}, {self.step}, {self.last})"


def _resolve(spec, offset: int, extent: int):
    """``(first, step, last)`` of a range specifier (a ``Range``, an
    index, or ``None`` for the full dimension) over the dimension
    ``[offset, offset + extent)``, not yet checked against it."""
    if not isinstance(spec, Range):
        if spec is None:
            spec = Range()
        elif not hasattr(type(spec), "__index__"):
            raise ValueError(f"cannot interpret {spec!r} as a range")
        else:
            # An int or a NumPy integer; Range rejects bool.
            spec = Range(spec)
    if spec.first is _FULL:
        return offset, 1, offset + extent - 1
    return spec.first, spec.step, spec.last


class _Frame(NamedTuple):
    """A view's ``meta``: its extents and scaled strides, the target's
    offsets and layout, the memory index ``gamma`` of its lower-bound
    corner in the target's buffer, and the ``reach`` from there to its
    upper-bound corner."""

    shape: Tuple[int, ...]
    offsets: Tuple[int, ...]
    layout: Tuple[int, ...]
    strides: Tuple[int, ...]
    gamma: int
    reach: int


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
    extents, strides, gamma, reach = [], [], meta.gamma, 0
    for (f, t, l), o, n, w in zip(ranges, meta.offsets, meta.shape, meta.strides):
        if not (o <= f and l < o + n):
            raise IndexError(
                f"range [{f}:{t}:{l}] out of bounds [{o}, {o + n}) "
                f"in dimension {len(extents) + 1}"
            )
        e, s = (l - f) // t + 1, w * t
        extents.append(e)
        strides.append(s)
        gamma += w * (f - o)
        reach += (e - 1) * s
    return _Frame(tuple(extents), meta.offsets, meta.layout, tuple(strides), gamma, reach)


class TensorView(_Strided):
    """Writable window into a :class:`DenseTensor` or another view.

    The view's extent in dimension ``r`` is ``(last - first) // step + 1``;
    its strides are the target's scaled by the steps, and all its elements
    sit at ``gamma + sum_r stride[r]*step[r]*(i[r] - offset[r])`` in the
    target's buffer, where ``gamma`` is the memory index of the lower-bound
    corner.  Index offsets are inherited from the target.  ``meta`` follows
    the target's live layout (see the module docstring).
    """

    __slots__ = ("target", "ranges", "_source", "_frame")

    def __init__(self, target: DenseTensor, ranges):
        ranges = tuple(ranges)
        try:
            meta = target.meta
        except AttributeError:
            raise TypeError("view target must be a tensor or view, "
                            f"got {type(target).__name__}") from None
        if len(ranges) != len(meta.shape):
            raise ValueError(
                f"expected {len(meta.shape)} ranges, got {len(ranges)}"
            )
        self.target = target
        # Bounds are checked once, by the frame.
        self.ranges = tuple(map(_resolve, ranges, meta.offsets, meta.shape))
        self._source = meta
        self._frame = _frame(self.ranges, meta)

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
        return _materialize(_mit(self))

    def __repr__(self):
        return f"TensorView(target={self.target!r}, ranges={self.ranges})"


def classify_view(v: TensorView) -> str:
    """``"slice"`` if exactly two extents exceed one and each matches its
    target extent, ``"fiber"`` if exactly one extent exceeds one, else
    ``"general"``."""
    if not isinstance(v, TensorView):
        raise TypeError(f"classify_view needs a TensorView, got {type(v).__name__}")
    wide = [(nv, nt) for nv, nt in zip(v.shape, v.target.shape) if nv > 1]
    if len(wide) == 2 and all(nv == nt for nv, nt in wide):
        return "slice"
    if len(wide) == 1:
        return "fiber"
    return "general"
