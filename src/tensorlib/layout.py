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

from itertools import product
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


def validate_shape(extents: Iterable[int]) -> Tuple[int, ...]:
    """Normalize and check a shape tuple.

    Requires order >= 1, every extent >= 1, and a total volume that fits a
    64-bit signed index.  Extent-1 dimensions are allowed (degenerate but
    legal, e.g. column vectors of shape ``(n, 1)``).
    """
    shape = tuple(int(n) for n in extents)
    if len(shape) == 0:
        raise ValueError("shape must have at least one dimension")
    if any(n < 1 for n in shape):
        raise ValueError(f"extents must be positive, got {shape}")
    v = 1
    for n in shape:
        v *= n
        if v > MAX_INDEX:
            raise ValueError(f"shape {shape} overflows the 64-bit index space")
    return shape


def validate_layout(perm: Iterable[int], order: int) -> Tuple[int, ...]:
    """Normalize a one-based layout permutation of ``(1, ..., order)``."""
    layout = tuple(int(q) for q in perm)
    if len(layout) != order:
        raise ValueError(f"layout {layout} does not match order {order}")
    if sorted(layout) != list(range(1, order + 1)):
        raise ValueError(f"layout {layout} is not a permutation of 1..{order}")
    return layout


def validate_offsets(offsets: Iterable[int], order: int) -> Tuple[int, ...]:
    """Normalize an offset tuple (any signed integers, length = order)."""
    off = tuple(int(o) for o in offsets)
    if len(off) != order:
        raise ValueError(f"offsets {off} do not match order {order}")
    return off


def first_order_layout(p: int) -> Tuple[int, ...]:
    """Layout ``(1, 2, ..., p)``: dimension 1 has the highest precedence."""
    if p < 1:
        raise ValueError("order must be positive")
    return tuple(range(1, p + 1))


def last_order_layout(p: int) -> Tuple[int, ...]:
    """Layout ``(p, ..., 2, 1)``: dimension p has the highest precedence."""
    if p < 1:
        raise ValueError("order must be positive")
    return tuple(range(p, 0, -1))


def volume(shape: Sequence[int]) -> int:
    """Number of elements; the memory index set is ``range(volume)``."""
    v = 1
    for n in shape:
        v *= n
    if v > MAX_INDEX:
        raise ValueError(f"shape {tuple(shape)} overflows the 64-bit index space")
    return v


def compute_strides(shape: Sequence[int], layout: Sequence[int]) -> Tuple[int, ...]:
    """Derive the stride tuple for ``shape`` under the one-based ``layout``.

    The result is indexed by dimension (``w[0]`` belongs to dimension 1),
    not by precedence rank.  The highest-precedence dimension gets stride 1;
    walking the layout, each next dimension's stride is the running product
    of the previous extents.
    """
    if len(layout) != len(shape):
        raise ValueError("shape and layout must have the same length")
    strides = [0] * len(shape)
    running = 1
    for q in layout:
        strides[q - 1] = running
        running *= shape[q - 1]
    return tuple(strides)


def memory_index(
    strides: Sequence[int], index: Sequence[int], offsets: Sequence[int]
) -> int:
    """Memory index of the absolute multi-index ``index``.

    Computes ``sum_r strides[r] * (index[r] - offsets[r])``.  Bounds are not
    checked here; the container layer checks them.
    """
    if not (len(strides) == len(index) == len(offsets)):
        raise ValueError("strides, index and offsets must have equal length")
    j = 0
    for w, i, o in zip(strides, index, offsets):
        j += w * (i - o)
    return j


class TensorMeta:
    """Shape, layout, offsets and the derived strides of one array.

    Instances are immutable; use :meth:`with_layout` / :meth:`with_shape`
    to derive modified copies.  Strides are always consistent with shape
    and layout by construction.
    """

    __slots__ = ("shape", "layout", "offsets", "strides")

    # Memory index of the lower-bound corner: a dense buffer starts there.
    gamma = 0

    def __init__(self, shape, offsets=None, layout=None):
        shape = validate_shape(shape)
        p = len(shape)
        layout = (
            first_order_layout(p) if layout is None else validate_layout(layout, p)
        )
        offsets = (0,) * p if offsets is None else validate_offsets(offsets, p)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "strides", compute_strides(shape, layout))

    def __setattr__(self, name, value):
        raise AttributeError("TensorMeta is immutable")

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return volume(self.shape)

    def with_layout(self, layout) -> "TensorMeta":
        return TensorMeta(self.shape, self.offsets, layout)

    def with_shape(self, shape) -> "TensorMeta":
        """Meta for a new shape: layout and offsets survive only if the
        order is unchanged."""
        shape = validate_shape(shape)
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


def inverse_memory_index(meta: TensorMeta, j: int) -> Tuple[int, ...]:
    """Zero-based multi-index of memory index ``j`` under ``meta``.

    Peels dimensions in decreasing precedence order, so it is the exact
    inverse of ``memory_index`` restricted to the zero-based index box.
    """
    if not 0 <= j < meta.size:
        raise ValueError(f"memory index {j} out of range [0, {meta.size})")
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
    volume(shape)  # raises on index-space overflow
    for rev in product(*[range(n) for n in reversed(shape)]):
        yield rev[::-1]
