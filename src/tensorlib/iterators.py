"""Stride-based and multidimensional iterators, and the fiber planner.

:class:`StrideIterator` walks one dimension of a buffer: advancing by one
shifts the position by the dimension's stride.  :class:`MultiIterator` is a
cursor over a whole multi-index set and acts as a factory: ``begin(r)`` /
``end(r)`` hand out stride iterator pairs for recursion depth ``r``
(zero-based, depth r covers dimension r+1).  Assigning a stride iterator
back to the cursor moves only the current position.  The range
algorithms check their ranges, then write or read each as one slice.

The fiber planner is the one traversal behind every elementwise kernel,
container path and contraction: it flattens the loop nest of N cursors of
equal extents into innermost fibers (a start position per cursor, a stride
per cursor and a shared length), merging dimensions wherever every cursor
is contiguous across them, so a kernel can work on whole fibers with slice
operations.  It only plans.  ``_pair_plan`` gives the same fibers for
two cursors held as loops, not as cursors: the contraction engine's free
loops and bound pairs, and the runs of equality's far-strided fibers.
:func:`check_reach` is the one reach rule and ``_check_raw`` the one
raw-cursor rule (integer fields, extents >= 0, a buffer with a length,
then reach): the kernels apply it where a raw cursor enters (a tensor or
view takes a constant-time reach test), and :func:`plan_fibers` to each.
``_tiles`` reads fibers whose elements lie far apart a tile at a time,
where ``_tiled`` says it should.

Both iterator types are cheap value objects over a shared buffer;
dereferencing follows the owning container's single-writer contract.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .layout import _as_indices, _index

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
        if type(k) is not int:
            (k,) = _as_indices((k,), "steps")
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
        r = _index(r, "depth", 0, len(self.extents) - 1)
        return StrideIterator(self.data, self.pos, self.strides[r])

    def end(self, r: int) -> StrideIterator:
        return self.begin(r).advance(self.extents[r])

    def move_to(self, it) -> "MultiIterator":
        """Adopt a stride iterator's (or raw) position; returns self."""
        if isinstance(it, StrideIterator):
            it = it.pos
        elif type(it) is not int:
            (it,) = _as_indices((it,), "position")
        self.pos = it
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
    """Set every element of the half-open range ``[first, last)`` by one
    slice assignment.

    ``last`` must lie a whole, nonnegative number of ``first``'s steps on
    in its buffer (else ``ValueError``; stride 0 only for an empty range),
    and the range must stay inside the buffer (else ``IndexError``, as
    :func:`check_reach` raises it).  Both are checked before any write.
    """
    n, (sl,) = _check_ranges(first, last)
    first.data[sl] = [value] * n


def inner_product_range(
    first1: StrideIterator, last1: StrideIterator, first2: StrideIterator, init
):
    """``sum(map(mul, a, b), init)`` over two equally long ranges, each read
    as one slice: the sum of :func:`~tensorlib.elementwise.inner_product_flat`.

    ``[first1, last1)`` is checked as :func:`fill_range` checks its range,
    and the range as long from ``first2`` must stay inside its buffer.
    """
    n, (sl1, sl2) = _check_ranges(first1, last1, first2)
    b = first2.data[sl2]
    return sum(map(mul, first1.data[sl1], b if first2.stride else b * n), init)


def _check_ranges(first: StrideIterator, last: StrideIterator, *others):
    """Check ``[first, last)``, and the ranges as long from ``others``; return
    that length and each range as one slice of its buffer (a stride-0 range:
    its one element; a backward range ending at index 0 stops at None)."""
    fields = [x for it in (first, last, *others) for x in (it.pos, it.stride)]
    _as_indices(fields, "range positions and strides")
    span, w = last.pos - first.pos, first.stride
    n = span // w if w else 0
    if last.data is not first.data or last.stride != w or n < 0 or n * w != span:
        raise ValueError(f"{last} lies no whole number of steps on from {first}")
    slices = []
    for it in (first, *others):
        p, w = it.pos, it.stride
        check_reach(MultiIterator(it.data, p, (w,), (n,)))
        stop = p + n * w if w else p + 1
        slices.append(slice(p, stop if stop >= 0 else None, w or 1) if n else slice(0))
    return n, slices


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
    With ``reorder`` the loops run by increasing stride of the first
    cursor, the one whose elements are read (a write's source), for
    operations whose result does not depend on visit order: the read
    walks its buffer in memory order, wherever the writes land.

    Raises ``ValueError`` for a field that is no integer or a negative
    extent, ``IndexError`` when some cursor would reach outside its buffer
    (:func:`check_reach`): a slice would clip (reading) or resize (writing).
    """
    for c in cursors:
        _check_raw(c)
    return _plan(cursors, reorder)


def _plan(cursors: Sequence[MultiIterator], reorder: bool = False) -> FiberPlan:
    """:func:`plan_fibers` for cursors already known to stay inside their
    buffers: it plans and checks nothing but the shared extents."""
    extents = cursors[0].extents
    for c in cursors:
        if c.extents != extents:
            raise ValueError(f"shape mismatch: {c.extents} vs {extents}")
    if not extents:
        # No dimensions: one fiber of one element at each cursor's position.
        return FiberPlan(1, (1,) * len(cursors), tuple([[c.pos] for c in cursors]))
    if 0 in extents:
        return FiberPlan(0, (1,) * len(cursors), tuple([] for _ in cursors))
    # Loops as (extent, stride per cursor), innermost first.
    dims = [d for d in zip(extents, zip(*[c.strides for c in cursors])) if d[0] != 1]
    if reorder:
        dims.sort(key=lambda d: d[1][0])
    loops: List[tuple] = []
    for n, ws in dims:
        if loops:
            m, vs = loops[-1]
            if ws == tuple([v * m for v in vs]):
                loops[-1] = (m * n, vs)
                continue
        loops.append((n, ws))
    if not loops or min(loops[0][1]) <= 0:
        # Slices need positive steps: fall back to one-element fibers.
        loops.insert(0, (1, (1,) * len(cursors)))
    length, steps = loops[0]
    outer = loops[1:]
    if not outer:
        return FiberPlan(length, steps, tuple([[c.pos] for c in cursors]))
    # Per cursor, inline: at these sizes a call, or a comprehension, per
    # cursor costs as much as the arithmetic of the plan.
    starts = []
    for k, c in enumerate(cursors):
        # Dimension 1 fastest: the first outer loop as a range, then each
        # further loop repeats the positions so far.
        n, ws = outer[0]
        w = ws[k]
        pos = c.pos
        positions = list(range(pos, pos + n * w, w)) if w else [pos] * n
        for n, ws in outer[1:]:
            w = ws[k]
            positions = [p + i * w for i in range(n) for p in positions]
        starts.append(positions)
    return FiberPlan(length, steps, tuple(starts))


def _pair_plan(loops, p0: int, p1: int) -> Tuple[int, Tuple[int, int], Tuple[list, list]]:
    """:func:`_plan`'s ``(length, strides, starts)`` of two cursors at
    positions ``p0`` and ``p1`` whose loops are ``loops``, ``(stride,
    extent, stride)`` per dimension, innermost first, with no cursor built.

    Loops of extent 1 drop out.  The first loop is the fiber, and the loops
    after it that both strides continue merge into it; each loop after
    those repeats the fiber starts inside it (as merged loops, they would
    repeat them in the same order).  With a stride below 1 in the fiber,
    every loop repeats and the fibers are single elements."""
    loops = [loop for loop in loops if loop[1] != 1] or [(1, 1, 1)]
    (w, length, v), *outer = loops
    while outer and outer[0][0] == w * length and outer[0][2] == v * length:
        length *= outer.pop(0)[1]
    if w <= 0 or v <= 0:
        outer, w, length, v = [(w, length, v), *outer], 1, 1, 1
    p0, p1 = [p0], [p1]
    for ws, n, vs in outer:
        p0 = [p + i * ws for i in range(n) for p in p0]
        p1 = [p + i * vs for i in range(n) for p in p1]
    return length, (w, v), (p0, p1)


# Fibers whose elements lie this many slots apart (32 KiB of list pointers)
# are read in tiles of at most this many elements.
_TILE = 4096


def _tiled(n: int, w: int, length: int, step: int) -> bool:
    """Whether :func:`_tiles` reads these fibers: elements at least
    ``_TILE`` slots apart, fibers ascending and nearer than that, and room
    in a tile for two fibers."""
    return step >= _TILE and 0 < w < step and n > 1 and 0 < length <= _TILE // 2


def _tiles(data: list, pos: int, n: int, w: int, length: int, step: int) -> Iterator[tuple]:
    """The ``n`` fibers from ``pos``, ``w`` apart, each ``length`` elements
    ``step`` apart, as tuples in that order, each with its elements in
    order: read a tile of at most ``_TILE`` elements at a time, one slice
    across the tile's fibers per fiber element, transposed by ``zip``."""
    size, end, span = _TILE // length * w, pos + n * w, length * step
    for lo in range(pos, end, size):
        width = min(size, end - lo)
        yield from zip(*[data[p : p + width : w] for p in range(lo, lo + span, step)])


def _positions(pos: int, strides, extents) -> Sequence[int]:
    """Positions of all multi-indices over ``extents`` (one or more) from
    ``pos``, dimension 1 fastest: a ``range`` as long as each dimension of
    nonzero stride runs on from the ones before it."""
    n, w = extents[0], strides[0]
    positions = range(pos, pos + n * w, w) if w else [pos] * n
    for n, w in zip(extents[1:], strides[1:]):
        if type(positions) is range and w == len(positions) * positions.step:
            positions = range(pos, pos + n * w, positions.step)
        else:
            positions = [p + i * w for i in range(n) for p in positions]
    return positions


def _check_raw(c: MultiIterator) -> None:
    """The raw-cursor rule: integer fields, extents >= 0, a buffer with a
    length, :func:`check_reach`."""
    _as_indices((c.pos, *c.strides, *c.extents), "cursor position, strides and extents")
    if c.extents and min(c.extents) < 0:
        raise ValueError(f"cursor extents must be nonnegative, got {c.extents}")
    try:
        len(c.data)
    except TypeError:
        raise TypeError(f"cursor buffer must be a sequence, got {type(c.data).__name__}") from None
    check_reach(c)


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
        raise _outside(lo, hi, c.data)


def _outside(lo: int, hi: int, data: list) -> IndexError:
    return IndexError(
        f"cursor reaches [{lo}, {hi}] outside its buffer of {len(data)} elements"
    )


def walk_positions(it: MultiIterator) -> List[int]:
    """Memory positions visited in iteration order (dimension 1 fastest).

    Every addressable element is visited exactly once for any layout.
    """
    if not isinstance(it, MultiIterator):
        raise TypeError(f"walk_positions needs a MultiIterator, got {type(it).__name__}")
    plan = plan_fibers((it,))
    return [p for sl in plan.slices(0) for p in range(sl.start, sl.stop, sl.step)]
