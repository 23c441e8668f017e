"""Owning dense multidimensional container with layout-transparent access.

A :class:`DenseTensor` pairs a :class:`~tensorlib.layout.TensorMeta` with a
contiguous element buffer indexed by memory index.  Element access by
multi-index goes through the layout function, so two tensors holding the
same values under different layouts are indistinguishable through
``t[i1, ..., ip]``.  Elements may be any numeric type closed under
``+ - * /`` (square root is additionally needed by norms and the power
method); the test suite exercises Python ints (exact) and floats.

Concurrency: a tensor is single-writer.  Concurrent reads are safe; any
mutation requires exclusive access.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .elementwise import _compare, _copy, _fill
from .iterators import MultiIterator, StrideIterator
from .layout import TensorMeta, validate_layout, validate_shape, volume

__all__ = ["DenseTensor", "tensors_equal"]


class DenseTensor:
    """Dense array with runtime order, extents, offsets and layout.

    ``DenseTensor(shape)`` value-initializes every element to zero, with
    zero offsets and the column-major-style default layout ``(1, ..., p)``.
    Multi-index access via ``t[i1, ..., ip]`` uses absolute (offset-biased)
    indices; ``get_memory``/``set_memory`` address the buffer directly.
    """

    __slots__ = ("meta", "data")

    def __init__(self, shape, offsets=None, layout=None, fill_value=0):
        self.meta = TensorMeta(shape, offsets, layout)
        self.data = [fill_value] * self.meta.size

    @classmethod
    def from_memory(cls, shape, data, offsets=None, layout=None) -> "DenseTensor":
        """Wrap an existing flat element sequence (copied, memory order)."""
        t = cls.__new__(cls)
        t.meta = TensorMeta(shape, offsets, layout)
        data = list(data)
        if len(data) != t.meta.size:
            raise ValueError(
                f"data length {len(data)} does not match volume {t.meta.size}"
            )
        t.data = data
        return t

    # -- structure ---------------------------------------------------------

    @property
    def shape(self):
        return self.meta.shape

    @property
    def order(self) -> int:
        return self.meta.order

    @property
    def layout(self):
        return self.meta.layout

    @property
    def offsets(self):
        return self.meta.offsets

    @property
    def strides(self):
        return self.meta.strides

    @property
    def size(self) -> int:
        return len(self.data)

    def copy(self) -> "DenseTensor":
        return DenseTensor.from_memory(
            self.shape, self.data, self.offsets, self.layout
        )

    # -- element access ----------------------------------------------------

    def _key_to_memory(self, key) -> int:
        if isinstance(key, int):
            key = (key,)
        else:
            key = tuple(key)
        meta = self.meta
        if len(key) != len(meta.shape):
            raise ValueError(f"expected {len(meta.shape)} indices, got {len(key)}")
        j = 0
        for r, (i, o, n, w) in enumerate(
            zip(key, meta.offsets, meta.shape, meta.strides)
        ):
            if not o <= i < o + n:
                raise IndexError(
                    f"index {i} out of bounds [{o}, {o + n}) in dimension {r + 1}"
                )
            j += w * (i - o)
        return j

    def __getitem__(self, key):
        return self.data[self._key_to_memory(key)]

    def __setitem__(self, key, value):
        self.data[self._key_to_memory(key)] = value

    def get_memory(self, j: int):
        """Read element ``j`` of the buffer, no index transformation."""
        if not 0 <= j < len(self.data):
            raise IndexError(f"memory index {j} out of range [0, {len(self.data)})")
        return self.data[j]

    def set_memory(self, j: int, value) -> None:
        if not 0 <= j < len(self.data):
            raise IndexError(f"memory index {j} out of range [0, {len(self.data)})")
        self.data[j] = value

    def item(self):
        """The single element of a one-element tensor."""
        if len(self.data) != 1:
            raise ValueError(f"item() requires volume 1, got {len(self.data)}")
        return self.data[0]

    # -- whole-tensor operations --------------------------------------------

    def fill(self, value) -> None:
        _fill(self.miter(), value)

    def assign(self, src) -> None:
        """Copy ``src``'s values so that both hold equal elements per
        zero-based multi-index.

        If the orders match, this tensor keeps its own layout and offsets
        (values are layout-converted on copy; the shape is adopted and
        strides recomputed if the shapes differ).  If the orders differ,
        layout and offsets are adopted from ``src`` as well.  ``src`` may
        be a tensor or a view.  Self-assignment is a no-op.
        """
        if src is self:
            return
        if self.order == src.order:
            meta = TensorMeta(src.shape, self.offsets, self.layout)
        else:
            meta = TensorMeta(src.shape, src.offsets, src.layout)
        self._rewrite(src.miter(), meta)

    def relayout(self, new_layout) -> None:
        """Switch to ``new_layout``, physically reordering the buffer so the
        multi-index to value mapping is unchanged."""
        new_layout = validate_layout(new_layout, self.order)
        if new_layout == self.layout:
            return
        self._rewrite(self.miter(), TensorMeta(self.shape, self.offsets, new_layout))

    def _rewrite(self, src: MultiIterator, meta: TensorMeta) -> None:
        """Adopt ``meta`` with a fresh buffer holding ``src``'s elements."""
        data = [0] * meta.size
        _copy(src, MultiIterator(data, 0, meta.strides, meta.shape))
        self.meta = meta
        self.data = data

    def reshape(self, new_shape) -> None:
        """Adopt ``new_shape`` (same volume), keeping the memory-order
        element sequence untouched.

        The layout and offsets survive when the order is unchanged; when it
        changes they reset to the default layout and zero offsets (the old
        tuples have the wrong length).
        """
        new_shape = validate_shape(new_shape)
        if volume(new_shape) != len(self.data):
            raise ValueError(
                f"reshape to {new_shape} changes volume "
                f"({volume(new_shape)} != {len(self.data)})"
            )
        self.meta = self.meta.with_shape(new_shape)

    # -- iterators -----------------------------------------------------------

    def miter(self) -> MultiIterator:
        """Multidimensional cursor at the first element."""
        return MultiIterator(self.data, 0, self.strides, self.shape)

    def dim_begin(self, dim: int, at: Optional[Sequence[int]] = None) -> StrideIterator:
        """Stride iterator over dimension ``dim`` (one-based).

        ``at`` optionally fixes the other coordinates' displacement as an
        absolute multi-index (its entry for ``dim`` is ignored); by default
        the range starts at the first element.
        """
        return StrideIterator(self.data, self._dim_base(dim, at), self.strides[dim - 1])

    def dim_end(self, dim: int, at: Optional[Sequence[int]] = None) -> StrideIterator:
        w = self.strides[dim - 1]
        pos = self._dim_base(dim, at) + self.shape[dim - 1] * w
        return StrideIterator(self.data, pos, w)

    def _dim_base(self, dim: int, at: Optional[Sequence[int]]) -> int:
        if not 1 <= dim <= self.order:
            raise ValueError(f"dimension {dim} out of range 1..{self.order}")
        if at is None:
            return 0
        if len(at) != self.order:
            raise ValueError(f"expected {self.order} indices, got {len(at)}")
        pos = 0
        for r in range(self.order):
            if r != dim - 1:
                pos += self.strides[r] * (at[r] - self.offsets[r])
        return pos

    # -- views ----------------------------------------------------------------

    def view(self, *ranges):
        """Select a rectangular region; see :class:`tensorlib.views.TensorView`.

        Accepts one range specifier per dimension (a ``Range``, an int for a
        single index, or ``None``/``Range()`` for the full dimension), or a
        single sequence of them.
        """
        from .views import TensorView

        if len(ranges) == 1 and isinstance(ranges[0], (list, tuple)):
            ranges = tuple(ranges[0])
        return TensorView(self, ranges)

    # -- interchange ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form: shape, one-based layout, offsets, and the data
        buffer in memory-index order."""
        return {
            "shape": list(self.shape),
            "layout": list(self.layout),
            "offsets": list(self.offsets),
            "data": list(self.data),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "DenseTensor":
        try:
            shape = obj["shape"]
            layout = obj.get("layout")
            offsets = obj.get("offsets")
            data = obj["data"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed tensor object: missing {exc}") from exc
        return cls.from_memory(shape, data, offsets, layout)

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return tensors_equal(self, other)

    def __repr__(self):
        return (
            f"DenseTensor(shape={self.shape}, offsets={self.offsets}, "
            f"layout={self.layout})"
        )


def tensors_equal(a, b) -> bool:
    """True iff ``a`` and ``b`` have equal order, equal shapes, and equal
    elements at every zero-based multi-index.

    Layout, strides and offsets are deliberately ignored: equality is a
    statement about the abstract array, not its storage.  Accepts tensors
    and views alike.
    """
    if a.order != b.order or a.shape != b.shape:
        return False
    return _compare(a.miter(), b.miter()).equal
