"""Stride-based and multidimensional iterators, and the fiber planner.

:class:`StrideIterator` walks one dimension of a buffer: advancing by one
shifts the position by the dimension's stride.  :class:`MultiIterator` is a
cursor over a whole multi-index set and acts as a factory: ``begin(r)`` /
``end(r)`` hand out stride iterator pairs for recursion depth ``r``
(zero-based, depth r covers dimension r+1).  Assigning a stride iterator
back to the cursor moves only the current position.

:func:`plan_fibers` is the one traversal behind every elementwise kernel,
container path and contraction: it flattens the loop nest of N cursors of
equal extents into innermost fibers (a start position per cursor, a stride
per cursor and a shared length), merging dimensions wherever every cursor
is contiguous across them, so a kernel can work on whole fibers with slice
operations.  :func:`check_reach` is its bounds check, one per cursor.

Both iterator types are cheap value objects over a shared buffer;
dereferencing follows the owning container's single-writer contract.
"""

from __future__ import annotations

from itertools import repeat
from operator import add
from typing import Iterator, List, NamedTuple, Sequence, Tuple

__all__ = [
    "FiberPlan",
    "MultiIterator",
    "StrideIterator",
    "check_reach",
    "fill_range",
    "inner_product_range",
    "plan_fibers",
    "walk_positions",
]


class StrideIterator:
    """Random-access cursor stepping through a buffer by a fixed stride.

    Two stride iterators compare equal iff their positions and strides are
    equal.  One-past-the-end positions are valid sentinels; dereferencing
    them is excluded by contract, not checked.
    """

    __slots__ = ("data", "pos", "stride")

    def __init__(self, data: list, pos: int, stride: int):
        self.data = data
        self.pos = pos
        self.stride = stride

    @property
    def value(self):
        return self.data[self.pos]

    @value.setter
    def value(self, v):
        self.data[self.pos] = v

    def advance(self, k: int = 1) -> "StrideIterator":
        """Move by ``k`` steps of the stride (mutating); returns self."""
        self.pos += k * self.stride
        return self

    def clone(self) -> "StrideIterator":
        return StrideIterator(self.data, self.pos, self.stride)

    def __eq__(self, other):
        if not isinstance(other, StrideIterator):
            return NotImplemented
        return self.pos == other.pos and self.stride == other.stride

    def __lt__(self, other):
        return self.pos < other.pos

    def __le__(self, other):
        return self.pos <= other.pos

    def __gt__(self, other):
        return self.pos > other.pos

    def __ge__(self, other):
        return self.pos >= other.pos

    def __repr__(self):
        return f"StrideIterator(pos={self.pos}, stride={self.stride})"


class MultiIterator:
    """Cursor over a multi-index set; factory for per-dimension ranges.

    Carries the buffer, the current position, and per-dimension strides and
    extents, so algorithms written against it never consult the container.
    ``begin(r)``/``end(r)`` use zero-based recursion depths.  Equality
    compares the position and buffer identity only.
    """

    __slots__ = ("data", "pos", "strides", "extents")

    def __init__(
        self,
        data: list,
        pos: int,
        strides: Sequence[int],
        extents: Sequence[int],
    ):
        if len(strides) != len(extents):
            raise ValueError("strides and extents must have equal length")
        self.data = data
        self.pos = pos
        self.strides = tuple(strides)
        self.extents = tuple(extents)

    @property
    def order(self) -> int:
        return len(self.extents)

    def begin(self, r: int) -> StrideIterator:
        if not 0 <= r < self.order:
            raise ValueError(f"depth {r} out of range for order {self.order}")
        return StrideIterator(self.data, self.pos, self.strides[r])

    def end(self, r: int) -> StrideIterator:
        if not 0 <= r < self.order:
            raise ValueError(f"depth {r} out of range for order {self.order}")
        w = self.strides[r]
        return StrideIterator(self.data, self.pos + self.extents[r] * w, w)

    def move_to(self, it) -> "MultiIterator":
        """Adopt a stride iterator's (or raw) position; returns self."""
        self.pos = it.pos if isinstance(it, StrideIterator) else int(it)
        return self

    def clone(self) -> "MultiIterator":
        return MultiIterator(self.data, self.pos, self.strides, self.extents)

    def __eq__(self, other):
        if not isinstance(other, MultiIterator):
            return NotImplemented
        return self.data is other.data and self.pos == other.pos

    def __repr__(self):
        return (
            f"MultiIterator(pos={self.pos}, strides={self.strides}, "
            f"extents={self.extents})"
        )


def fill_range(first: StrideIterator, last: StrideIterator, value) -> None:
    """Set every element of the half-open range ``[first, last)``."""
    data, pos, stride = first.data, first.pos, first.stride
    end = last.pos
    while pos != end:
        data[pos] = value
        pos += stride


def inner_product_range(
    first1: StrideIterator, last1: StrideIterator, first2: StrideIterator, init
):
    """Fold ``init + sum(a_k * b_k)`` over two equally long ranges."""
    d1, p1, s1 = first1.data, first1.pos, first1.stride
    d2, p2, s2 = first2.data, first2.pos, first2.stride
    end = last1.pos
    acc = init
    while p1 != end:
        acc += d1[p1] * d2[p2]
        p1 += s1
        p2 += s2
    return acc


class FiberPlan(NamedTuple):
    """Innermost fibers of a merged loop nest over N cursors.

    Fiber ``f`` of cursor ``k`` covers the positions
    ``starts[k][f] + m * strides[k]`` for ``m`` in ``range(length)``.
    Every stride is positive, so each fiber is the slice
    ``data[p:p + length * s:s]``; :meth:`slices` hands them out.
    """

    length: int
    strides: Tuple[int, ...]
    starts: Tuple[List[int], ...]

    def slices(self, k: int) -> Iterator[slice]:
        """Cursor ``k``'s fibers as slices of its buffer, in plan order."""
        starts, step = self.starts[k], self.strides[k]
        stops = map(add, starts, repeat(self.length * step))
        return map(slice, starts, stops, repeat(step))


def plan_fibers(cursors: Sequence[MultiIterator], reorder: bool = False) -> FiberPlan:
    """Plan the traversal of cursors that share their extents.

    Extent-1 dimensions are dropped, and a dimension merges into the loop
    inside it when ``w[r+1] == w[r] * n[r]`` holds for every cursor.  By
    default the loops keep dimension 1 innermost, so fibers and the
    elements within them come in iteration order (dimension 1 fastest).
    With ``reorder`` the loops run by increasing stride of the last cursor
    (the destination), for operations whose result does not depend on
    visit order.

    Raises ``IndexError`` when some cursor would reach outside its buffer;
    one check per call, since a slice would silently clip (reading) or
    resize the list (writing).
    """
    plan = _plan(cursors, reorder)
    for c in cursors:
        check_reach(c)
    return plan


def _plan(cursors: Sequence[MultiIterator], reorder: bool) -> FiberPlan:
    """:func:`plan_fibers` without the reach check, for callers that have
    checked every cursor it is given, or cursors covering them."""
    extents = cursors[0].extents
    for c in cursors:
        if c.extents != extents:
            raise ValueError(f"shape mismatch: {c.extents} vs {extents}")
    if 0 in extents:
        return FiberPlan(0, (1,) * len(cursors), tuple([] for _ in cursors))
    # Loops as [extent, [stride per cursor]], innermost first.
    dims = [
        [n, list(ws)]
        for n, ws in zip(extents, zip(*[c.strides for c in cursors]))
        if n != 1
    ]
    if reorder:
        dims.sort(key=lambda d: d[1][-1])
    loops: List[list] = []
    for d in dims:
        if loops:
            m, vs = loops[-1]
            if d[1] == [v * m for v in vs]:
                loops[-1][0] = m * d[0]
                continue
        loops.append(d)
    if not loops or min(loops[0][1]) <= 0:
        # Slices need positive steps: fall back to one-element fibers.
        loops.insert(0, [1, [1] * len(cursors)])
    outer = [n for n, _ in loops[1:]]
    starts = tuple(
        _positions(c.pos, [ws[k] for _, ws in loops[1:]], outer)
        for k, c in enumerate(cursors)
    )
    length, strides = loops[0]
    return FiberPlan(length, tuple(strides), starts)


def _positions(pos: int, strides, extents) -> List[int]:
    """Positions of all multi-indices over ``extents`` from ``pos``,
    dimension 1 fastest."""
    positions = [pos]
    for n, w in zip(extents, strides):
        positions = [p + i * w for i in range(n) for p in positions]
    return positions


def check_reach(c: MultiIterator) -> None:
    """Raise ``IndexError`` unless every position the cursor ``c`` can
    reach lies inside its buffer."""
    if 0 in c.extents:
        return
    lo = hi = c.pos
    for n, w in zip(c.extents, c.strides):
        reach = (n - 1) * w
        if reach < 0:
            lo += reach
        else:
            hi += reach
    if lo < 0 or hi >= len(c.data):
        raise IndexError(
            f"cursor reaches [{lo}, {hi}] outside its buffer of "
            f"{len(c.data)} elements"
        )


def walk_positions(it: MultiIterator) -> List[int]:
    """Memory positions visited in iteration order (dimension 1 fastest).

    Every addressable element is visited exactly once for any layout.
    """
    plan = plan_fibers((it,))
    return [p for sl in plan.slices(0) for p in range(sl.start, sl.stop, sl.step)]
