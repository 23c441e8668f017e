"""Owning dense multidimensional container with layout-transparent access.

A :class:`DenseTensor` pairs a :class:`~tensorlib.layout.TensorMeta` with a
contiguous element buffer indexed by memory index.  Element access by
multi-index goes through the layout function, so two tensors holding the
same values under different layouts are indistinguishable through
``t[i1, ..., ip]``.  Elements may be any numeric type closed under
``+ - * /`` (square root is additionally needed by norms and the power
method); the test suite exercises Python ints (exact) and floats.

Tensors and views (:mod:`tensorlib.views`) share one addressing core,
``_Strided``: element access, cursors and structure properties read only
``data`` and ``meta``.  A tensor's ``meta`` is its ``TensorMeta``, whose
base position ``gamma`` is 0.

Concurrency: a tensor is single-writer.  Concurrent reads are safe; any
mutation requires exclusive access.
"""

from __future__ import annotations

from math import prod
from typing import Optional, Sequence

from .elementwise import _copy, _equal, _fill, _mit
from .iterators import MultiIterator, StrideIterator
from .layout import TensorMeta, _all_ints, _as_indices, _index

__all__ = ["DenseTensor", "tensors_equal"]


class _Strided:
    """Element addressing and structure shared by tensors and views.

    Everything here reads two attributes: ``data``, the element buffer,
    and ``meta``, checked when made, which carries ``shape``, ``offsets``,
    ``layout``, ``strides`` and the base position ``gamma`` of the element
    at the lower-bound corner.  The bounds-checked layout function is
    ``j = gamma + sum_r w[r] * (i[r] - o[r])``.
    """

    __slots__ = ()

    @property
    def shape(self):
        return self.meta.shape

    @property
    def order(self) -> int:
        return len(self.meta.shape)

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
        return prod(self.meta.shape)

    def _key_to_memory(self, key) -> int:
        if type(key) is not tuple or not _all_ints(map(type, key)):
            # A tuple of plain ints needs no call; anything else (one index,
            # a list, NumPy integers, floats, bools) takes the integer rule.
            key = _as_indices(key if hasattr(key, "__iter__") else (key,), "index")
        meta = self.meta
        shape = meta.shape
        if len(key) != len(shape):
            raise ValueError(f"expected {len(shape)} indices, got {len(key)}")
        j = meta.gamma
        for i, o, n, w in zip(key, meta.offsets, shape, meta.strides):
            if not o <= i < o + n:
                raise _out_of_bounds(key, meta)
            j += w * (i - o)
        return j

    def miter(self) -> MultiIterator:
        """Multidimensional cursor at the first element."""
        meta = self.meta
        return MultiIterator(self.data, meta.gamma, meta.strides, meta.shape)

    def dim_begin(self, dim: int, at: Optional[Sequence[int]] = None) -> StrideIterator:
        """Stride iterator over dimension ``dim`` (one-based).

        ``at`` optionally fixes the other coordinates' displacement as an
        absolute multi-index, bounds-checked like element access (its entry
        for ``dim`` is ignored); by default the range starts at the first
        element.
        """
        return self._dim_cursor(dim, at).begin(dim - 1)

    def dim_end(self, dim: int, at: Optional[Sequence[int]] = None) -> StrideIterator:
        return self._dim_cursor(dim, at).end(dim - 1)

    def _dim_cursor(self, dim: int, at: Optional[Sequence[int]]) -> MultiIterator:
        meta = self.meta
        p = len(meta.shape)
        dim = _index(dim, "dimension", 1, p)
        if at is None:
            return self.miter()
        if len(at) != p:
            raise ValueError(f"expected {p} indices, got {len(at)}")
        at = list(at)
        at[dim - 1] = meta.offsets[dim - 1]
        return self.miter().move_to(self._key_to_memory(at))


def _out_of_bounds(key, meta) -> IndexError:
    """The error for the first index of ``key`` outside ``meta``'s box."""
    for r, (i, o, n) in enumerate(zip(key, meta.offsets, meta.shape), 1):
        if not o <= i < o + n:
            return IndexError(f"index {i} out of bounds [{o}, {o + n}) in dimension {r}")


class DenseTensor(_Strided):
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

    def copy(self) -> "DenseTensor":
        return DenseTensor.from_memory(
            self.shape, self.data, self.offsets, self.layout
        )

    # -- element access ----------------------------------------------------

    def __getitem__(self, key):
        return self.data[self._key_to_memory(key)]

    def __setitem__(self, key, value):
        self.data[self._key_to_memory(key)] = value

    def get_memory(self, j: int):
        """Read element ``j`` of the buffer, no index transformation."""
        return self.data[_index(j, "memory index", 0, len(self.data) - 1, IndexError)]

    def set_memory(self, j: int, value) -> None:
        self.data[_index(j, "memory index", 0, len(self.data) - 1, IndexError)] = value

    def item(self):
        """The single element of a one-element tensor."""
        if len(self.data) != 1:
            raise ValueError(f"item() requires volume 1, got {len(self.data)}")
        return self.data[0]

    # -- whole-tensor operations --------------------------------------------

    def fill(self, value) -> None:
        _fill(_mit(self), value)

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
        self._rewrite(_mit(src), meta)

    def relayout(self, new_layout) -> None:
        """Switch to ``new_layout``, physically reordering the buffer so the
        multi-index to value mapping is unchanged."""
        meta = self.meta.with_layout(new_layout)
        if meta.layout != self.layout:
            self._rewrite(_mit(self), meta)

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
        meta = self.meta.with_shape(new_shape)
        if meta.size != len(self.data):
            raise ValueError(
                f"reshape to {meta.shape} changes volume ({meta.size} != {len(self.data)})"
            )
        self.meta = meta

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
        """Inverse of :meth:`to_dict`.  Raises ``ValueError`` unless
        ``shape``, and ``layout`` and ``offsets`` when given, are lists of
        ints and ``data`` is a list of ints and floats; ``bool`` and ``str``
        elements count as neither."""
        try:
            shape = obj["shape"]
            layout = obj.get("layout")
            offsets = obj.get("offsets")
            data = obj["data"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed tensor object: missing {exc}") from exc
        fields = [("shape", shape, (int,)), ("data", data, (int, float))]
        fields += [(k, v, (int,)) for k, v in (("layout", layout), ("offsets", offsets))
                   if v is not None]
        for key, value, kinds in fields:
            if type(value) is not list or any(type(v) not in kinds for v in value):
                names = " or ".join(k.__name__ for k in kinds)
                raise ValueError(f"{key} must be a list of {names}")
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


def _materialize(src: MultiIterator) -> DenseTensor:
    """Fresh default-layout, zero-offset tensor holding the cursor ``src``'s
    elements, for ``materialize``, ``transpose`` and empty ``times_*`` chains."""
    out = DenseTensor(src.extents)
    _copy(src, out.miter())
    return out


def tensors_equal(a, b) -> bool:
    """True iff ``a`` and ``b`` have equal order, equal shapes, and equal
    elements at every zero-based multi-index.

    Layout, strides and offsets are deliberately ignored: equality is a
    statement about the abstract array, not its storage.  Accepts tensors
    and views alike.
    """
    if a.order != b.order or a.shape != b.shape:
        return False
    return _equal(_mit(a), _mit(b))
