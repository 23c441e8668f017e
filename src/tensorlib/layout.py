"""Addressing algebra for dense tensors with runtime storage layouts.

A tensor of order ``p`` keeps its elements in one contiguous buffer
addressed by a zero-based *memory index* ``j``.  Four tuples describe the
arrangement:

* shape ``n``: positive per-dimension extents,
* layout ``pi``: a one-based permutation of ``(1, ..., p)`` listing the
  dimensions by storage precedence; ``(1, 2, ..., p)`` generalizes
  column-major storage and ``(p, ..., 2, 1)`` row-major,
* offsets ``o``: signed index biases; dimension ``r`` admits indices
  ``o[r] <= i < o[r] + n[r]``,
* strides ``w``: derived from ``n`` and ``pi``; the highest-precedence
  dimension has stride 1 and each following dimension's stride is the
  product of the extents of the dimensions preceding it in precedence.

The layout function maps an absolute multi-index to its memory index::

    j = sum_r w[r] * (i[r] - o[r])

Multi-indices at this interface are absolute (offset-biased) unless a
function documents zero-based ones.  Everything here is a pure function of
immutable tuples; :class:`TensorMeta` instances are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import sys
from itertools import product
from math import prod
from operator import index
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = [
    "MAX_INDEX",
    "TensorMeta",
    "compute_strides",
    "first_order_layout",
    "inverse_memory_index",
    "last_order_layout",
    "memory_index",
    "validate_layout",
    "validate_offsets",
    "validate_shape",
    "volume",
    "zero_indices",
]

# Volume cap mirroring a 64-bit signed index type; Python ints never wrap,
# so exceeding this is reported as a construction error instead.
MAX_INDEX = 2**63 - 1


# True iff every type in an iterable is ``int``: plain ints, not bools.
_all_ints = frozenset((int,)).issuperset


def _as_indices(values: Iterable[int], name: str) -> Tuple[int, ...]:
    """``values`` as a tuple of ints, through ``operator.index``: ints and
    NumPy integers pass; floats, strings and ``bool`` (as in
    ``DenseTensor.from_dict``) raise ``ValueError`` naming ``name``."""
    values = tuple(values)
    if _all_ints(map(type, values)):
        # Plain ints, the common case: every kernel output builds a meta.
        return values
    try:
        if bool not in map(type, values):
            return tuple(map(index, values))
    except TypeError:
        pass
    raise ValueError(f"{name} must be integers, got {values!r}")


def _index(value, name: str, lo: int, hi=None, error=ValueError) -> int:
    """``value`` as an int by :func:`_as_indices`' rule, checked to lie in
    ``lo..hi`` (``hi`` None: at least ``lo``); else ``error`` naming
    ``name``.  The range rule of every scalar index, mode, order and count
    argument."""
    if type(value) is not int:
        (value,) = _as_indices((value,), name)
    if hi is None:
        if value < lo:
            raise error(f"{name} must be >= {lo}, got {value}")
    elif not lo <= value <= hi:
        raise error(f"{name} {value} out of range {lo}..{hi}")
    return value


def _listed(values, name: str, what: str) -> list:
    """The items of the iterable ``values`` as a list; ``TypeError`` naming
    ``name`` when it is not iterable.  The rule of every argument that is a
    sequence of operands."""
    try:
        values = iter(values)
    except TypeError:
        raise TypeError(f"{name} must be a sequence of {what}, "
                        f"got {type(values).__name__}") from None
    return list(values)


def validate_shape(extents: Iterable[int]) -> Tuple[int, ...]:
    """Normalize and check a shape tuple.

    Requires order >= 1, every extent >= 1, and a total volume that fits a
    64-bit signed index.  Extent-1 dimensions are allowed (degenerate but
    legal, e.g. column vectors of shape ``(n, 1)``).
    """
    return _checked_shape(extents)[0]


def _checked_shape(extents: Iterable[int]) -> Tuple[Tuple[int, ...], int]:
    """:func:`validate_shape`'s shape and the volume it checked."""
    shape = _as_indices(extents, "shape")
    if not shape:
        raise ValueError("shape must have at least one dimension")
    if min(shape) < 1:
        raise ValueError(f"extents must be positive, got {shape}")
    size = prod(shape)
    if size > MAX_INDEX:
        raise ValueError(f"shape {shape} overflows the 64-bit index space")
    return shape, size


def validate_layout(perm: Iterable[int], order: int) -> Tuple[int, ...]:
    """Normalize a one-based layout permutation of ``(1, ..., order)``."""
    return _permutation(perm, "layout", order)


def _permutation(values: Iterable[int], name: str, order=None) -> Tuple[int, ...]:
    """``values`` as a one-based permutation of ``(1, ..., order or len(values))``."""
    perm = _as_indices(values, name)
    if order is not None and len(perm) != order:
        raise ValueError(f"{name} {perm} does not match order {order}")
    if sorted(perm) != [*range(1, len(perm) + 1)]:
        raise ValueError(f"{name} {perm} is not a permutation of 1..{len(perm)}")
    return perm


def validate_offsets(offsets: Iterable[int], order: int) -> Tuple[int, ...]:
    """Normalize an offset tuple (any signed integers, length = order)."""
    off = _as_indices(offsets, "offsets")
    if len(off) != order:
        raise ValueError(f"offsets {off} do not match order {order}")
    return off


def first_order_layout(p: int) -> Tuple[int, ...]:
    """Layout ``(1, 2, ..., p)``: dimension 1 has the highest precedence."""
    return tuple(range(1, _holdable(_index(p, "order", 1)) + 1))


def last_order_layout(p: int) -> Tuple[int, ...]:
    """Layout ``(p, ..., 2, 1)``: dimension p has the highest precedence."""
    return tuple(range(_holdable(_index(p, "order", 1)), 0, -1))


def _holdable(p: int) -> int:
    """The order ``p``, unless it exceeds ``sys.maxsize``, the most items a
    tuple can hold: then ``ValueError``."""
    if p > sys.maxsize:
        raise ValueError(f"order must be <= {sys.maxsize}, the most a tuple holds, got {p}")
    return p


def volume(shape: Sequence[int]) -> int:
    """Number of elements: the memory index set is ``range(volume)``.
    ``shape`` is a cursor's extents, nonnegative integers: ``volume(()) == 1``."""
    shape = _as_indices(shape, "shape")
    if shape and min(shape) < 0:
        raise ValueError(f"shape extents must be nonnegative, got {shape}")
    v = prod(shape)
    if v > MAX_INDEX:
        raise ValueError(f"shape {shape} overflows the 64-bit index space")
    return v


def compute_strides(shape: Sequence[int], layout: Sequence[int]) -> Tuple[int, ...]:
    """The strides of ``shape`` under the one-based ``layout``, indexed by
    dimension (``w[0]`` belongs to dimension 1): ``TensorMeta``'s, so both
    arguments obey, and raise the ``ValueError``s of, every tensor's rules."""
    return TensorMeta(shape, layout=layout).strides


def memory_index(
    strides: Sequence[int], index: Sequence[int], offsets: Sequence[int]
) -> int:
    """Memory index of the absolute multi-index ``index``.

    Computes ``sum_r strides[r] * (index[r] - offsets[r])`` for an ``index``
    of integers (:func:`_as_indices`); the container layer checks bounds.
    """
    index = _as_indices(index, "index")
    if not (len(strides) == len(index) == len(offsets)):
        raise ValueError("strides, index and offsets must have equal length")
    j = 0
    for w, i, o in zip(strides, index, offsets):
        j += w * (i - o)
    return j


class TensorMeta:
    """Shape, layout, offsets and the derived strides of one array.

    Instances are immutable; use :meth:`with_layout` / :meth:`with_shape`
    to derive modified copies.  Strides and ``size`` (the volume) are
    always consistent with shape and layout by construction.
    """

    __slots__ = ("shape", "layout", "offsets", "strides", "size")

    # Memory index of the lower-bound corner: a dense buffer starts there.
    gamma = 0

    def __init__(self, shape, offsets=None, layout=None):
        shape, size = _checked_shape(shape)
        p = len(shape)
        layout = (
            tuple(range(1, p + 1)) if layout is None else _permutation(layout, "layout", p)
        )
        offsets = (0,) * p if offsets is None else validate_offsets(offsets, p)
        # The stride rule (module docstring), walking the layout.
        strides = [0] * p
        running = 1
        for q in layout:
            strides[q - 1] = running
            running *= shape[q - 1]
        _set_shape(self, shape)
        _set_layout(self, layout)
        _set_offsets(self, offsets)
        _set_strides(self, tuple(strides))
        _set_size(self, size)

    def __setattr__(self, name, value):
        raise AttributeError("TensorMeta is immutable")

    @property
    def order(self) -> int:
        return len(self.shape)

    def with_layout(self, layout) -> "TensorMeta":
        return TensorMeta(self.shape, self.offsets, layout)

    def with_shape(self, shape) -> "TensorMeta":
        """Meta for a new shape: layout and offsets survive only if the
        order is unchanged."""
        shape = tuple(shape)
        if len(shape) == self.order:
            return TensorMeta(shape, self.offsets, self.layout)
        return TensorMeta(shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorMeta):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.layout == other.layout
            and self.offsets == other.offsets
        )

    def __hash__(self):
        return hash((self.shape, self.layout, self.offsets))

    def __repr__(self) -> str:
        return (
            f"TensorMeta(shape={self.shape}, offsets={self.offsets}, "
            f"layout={self.layout})"
        )


# Each slot's own store, past the immutability guard of ``__setattr__``.
_set_shape, _set_layout, _set_offsets, _set_strides, _set_size = (
    getattr(TensorMeta, name).__set__ for name in TensorMeta.__slots__
)


def inverse_memory_index(meta: TensorMeta, j: int) -> Tuple[int, ...]:
    """Zero-based multi-index of memory index ``j`` under ``meta``.

    Peels dimensions in decreasing precedence order, so it is the exact
    inverse of ``memory_index`` restricted to the zero-based index box.
    """
    if not isinstance(meta, TensorMeta):
        raise TypeError(f"inverse_memory_index needs a TensorMeta, got {type(meta).__name__}")
    j = _index(j, "memory index", 0, meta.size - 1)
    idx = [0] * meta.order
    for q in reversed(meta.layout):
        w = meta.strides[q - 1]
        idx[q - 1], j = divmod(j, w)
    return tuple(idx)


def zero_indices(shape: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Yield all zero-based multi-indices, dimension 1 varying fastest.

    This is the canonical iteration order of the kernels (dimension p
    outermost, dimension 1 innermost).
    """
    volume(shape)  # raises on a bad extent and on index-space overflow
    for rev in product(*[range(n) for n in reversed(shape)]):
        yield rev[::-1]
