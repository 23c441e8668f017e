"""Elementwise algorithm suite over multidimensional iterators.

Every function here takes its operands (tensors, views, raw
:class:`~tensorlib.iterators.MultiIterator` cursors, or any type keeping
the rule stated at :func:`_mit`) through that one door of every kernel,
contraction and container path, and combines operands of one shape at
any, mutually different, layouts.  The door checks once that an operand
stays inside its buffer (a raw cursor by ``iterators._check_raw``, which
``plan_fibers`` applies too): one that would reach outside raises
``IndexError``, a raw cursor with a negative extent ``ValueError`` and a
non-operand ``TypeError``, before anything is written.  All of them then
run on one traversal, the fiber planner: the loop nest is merged into
innermost fibers, and a thin kernel handles each fiber with slice
operations (slice assignment for ``copy``/``fill``, ``map`` into a slice
for transforms, ``map`` over the fibers for comparisons and reductions).
A fiber is read as a list slice, except that an operand whose plan is one
stride-1 fiber as long as its buffer is read in place, as the buffer
itself.  Multi-operand operations plan all cursors jointly, so combined
elements share a zero-based multi-index.  Comparisons decide equality
with one pass of ``!=`` and count positions only when some differ.

Iteration order is dimension p outermost, dimension 1 innermost, by
dimension number, not storage precedence.  It is kept by every operation
whose result or call sequence depends on it: ``generate``, ``iota``,
``find_first``, ``extremum_element`` (ties go to the first occurrence),
``compare_ranges``, ``count_matching``, ``quantify``, ``accumulate`` and
``inner_product_flat``.  ``copy``, ``fill``, ``transform_unary``,
``transform_binary``, ``for_each`` and ``copy_if`` may run their loops in
any order (they walk the destination's smallest stride innermost), so
their callables must not depend on call order; ``for_each``'s "mutator" is
a value-returning function whose result is stored back (Python scalars
cannot be mutated through references).

Reductions run in iteration order.  ``accumulate`` is a plain left fold,
``acc = acc + x``.  ``inner_product_flat`` is ``sum(map(mul, a, b),
init)``, the reduction primitive the contraction engine uses too: up to
Python 3.11 the builtin ``sum`` adds left to right like ``acc += x * y``,
and from 3.12 it compensates float rounding.  The promise is that
floating-point results are bit-identical across layouts, views and
kernels within one Python version.

A source that is the destination's own cursor (``transform_unary(t, t,
f)``) runs in place; any other source over the destination's buffer is
read in full before the first store: overlap gives the copy-first result.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import add, eq, itemgetter, mul, ne
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Tuple

from .iterators import FiberPlan, MultiIterator, _check_raw, _outside, _plan
from .layout import TensorMeta

__all__ = [
    "CompareResult",
    "accumulate",
    "all_of",
    "any_of",
    "compare_ranges",
    "copy",
    "copy_if",
    "count_matching",
    "extremum_element",
    "fill",
    "find_first",
    "for_each",
    "generate",
    "inner_product_flat",
    "iota",
    "none_of",
    "quantify",
    "transform_binary",
    "transform_unary",
]

_MISSING = object()


class CompareResult(NamedTuple):
    equal: bool
    first_mismatch: Optional[Tuple[int, ...]]


def _mit(source) -> MultiIterator:
    """The cursor of a tensor, view or raw cursor, checked once to stay
    inside its buffer: the library reads a caller's operand here only.  An
    operand is a :class:`MultiIterator` (held to the raw-cursor rule) or
    any object with ``miter()``, its cursor at the first element, and
    ``meta``, whose reach is ``size - 1`` for a :class:`TensorMeta` and
    ``reach`` for any other meta; anything else raises ``TypeError``."""
    if isinstance(source, MultiIterator):
        _check_raw(source)
        return source
    try:
        miter, meta = source.miter, source.meta
    except AttributeError:
        raise TypeError("operand must be a tensor, view or MultiIterator, "
                        f"got {type(source).__name__}") from None
    it = miter()  # outside the try: an AttributeError in miter() is not masked
    last = it.pos + (meta.size - 1 if type(meta) is TensorMeta else meta.reach)
    if last >= len(it.data):
        raise _outside(it.pos, last, it.data)
    return it


# -- fiber kernels -------------------------------------------------------------


def _fibers(plan: FiberPlan, k: int, it: MultiIterator) -> Iterable[list]:
    """Cursor ``k``'s fibers as lists, in plan order.

    A cursor whose plan is one stride-1 fiber as long as its buffer reads
    the buffer itself, not a copy of it.  A destination fiber may then be
    that same list: slice assignment reads its whole right-hand side
    before it writes.
    """
    data = it.data
    if plan.length == len(data) and plan.strides[k] == 1 and len(plan.starts[k]) == 1:
        return (data,)
    return map(data.__getitem__, plan.slices(k))


def _sources(plan: FiberPlan, k: int, it: MultiIterator, dst: MultiIterator) -> Iterable[list]:
    """:func:`_fibers` of the source cursor ``k``, read in full before any
    store wherever ``it`` shares ``dst``'s buffer at other positions."""
    fibers = _fibers(plan, k, it)
    if it.data is dst.data and (it.pos, it.strides) != (dst.pos, dst.strides):
        return list(fibers)
    return fibers


def _values(plan: FiberPlan, k: int, it: MultiIterator) -> Iterable:
    """Cursor ``k``'s elements, fiber after fiber: a buffer that
    :func:`_fibers` reads in place is returned as itself."""
    fibers = _fibers(plan, k, it)
    return fibers[0] if type(fibers) is tuple else chain.from_iterable(fibers)


def _store(plan: FiberPlan, dst: MultiIterator, fibers: Iterable) -> None:
    """Write one iterable per fiber into the plan's last cursor ``dst``.

    A fiber is read in full before it is written, so a source fiber may
    sit at the same positions as its destination fiber.
    """
    deque(map(dst.data.__setitem__, plan.slices(-1), fibers), maxlen=0)


# Cursor-level kernels of copy, fill and equality (``compare_ranges``' flag
# alone); the container paths (relayout, assign, tensors_equal and
# ``tensor._materialize``) call them on cursors from ``_mit``, or on fresh
# outputs.


def _copy(a: MultiIterator, c: MultiIterator) -> None:
    plan = _plan((a, c), reorder=True)
    _store(plan, c, _sources(plan, 0, a, c))


def _fill(c: MultiIterator, value) -> None:
    plan = _plan((c,), reorder=True)
    _store(plan, c, repeat([value] * plan.length))


def _differs(plan: FiberPlan, ia: MultiIterator, ib: MultiIterator) -> Iterator[bool]:
    """``x != y`` per element pair of the plan's two cursors, in order."""
    return map(ne, _values(plan, 0, ia), _values(plan, 1, ib))


def _equal(ia: MultiIterator, ib: MultiIterator) -> bool:
    return not any(_differs(_plan((ia, ib)), ia, ib))


def _unravel(k: int, extents) -> Tuple[int, ...]:
    """Zero-based multi-index of the k-th element in iteration order."""
    idx = []
    for n in extents:
        k, i = divmod(k, n)
        idx.append(i)
    return tuple(idx)


def _in_order(src) -> Tuple[MultiIterator, Iterable]:
    """``src``'s cursor and its elements in iteration order."""
    it = _mit(src)
    return it, _values(_plan((it,)), 0, it)


# -- mutating suite ----------------------------------------------------------


def for_each(a, fn: Callable) -> None:
    """Replace every element ``x`` with ``fn(x)``, exactly once per element."""
    it = _mit(a)
    plan = _plan((it,), reorder=True)
    _store(plan, it, map(map, repeat(fn), _fibers(plan, 0, it)))


def fill(dst, value) -> None:
    """Set every element to ``value``."""
    _fill(_mit(dst), value)


def generate(dst, gen: Callable) -> None:
    """Fill with successive results of the nullary ``gen``, in iteration
    order.  Index-dependent values are expressible as iota + transform."""
    it = _mit(dst)
    plan = _plan((it,))
    n = plan.length
    for sl in plan.slices(0):
        it.data[sl] = [gen() for _ in range(n)]


def iota(dst, start=0) -> None:
    """Write ``start, start + 1, ...`` in iteration order."""
    generate(dst, count(start).__next__)


def transform_unary(src, dst, fn: Callable) -> None:
    """``dst[i] = fn(src[i])`` for every zero-based multi-index ``i``."""
    a, c = _mit(src), _mit(dst)
    plan = _plan((a, c), reorder=True)
    _store(plan, c, map(map, repeat(fn), _sources(plan, 0, a, c)))


def transform_binary(a, b, dst, op: Callable) -> None:
    """``dst[i] = op(a[i], b[i])`` with all three iterated in lockstep."""
    ia, ib, ic = _mit(a), _mit(b), _mit(dst)
    plan = _plan((ia, ib, ic), reorder=True)
    fibers = map(map, repeat(op), _sources(plan, 0, ia, ic), _sources(plan, 1, ib, ic))
    _store(plan, ic, fibers)


def copy(src, dst) -> None:
    """``dst[i] = src[i]``; layouts may differ."""
    _copy(_mit(src), _mit(dst))


def copy_if(src, dst, pred: Callable) -> None:
    """Copy only elements satisfying ``pred``; other destination elements
    stay untouched."""
    a, c = _mit(src), _mit(dst)
    plan = _plan((a, c), reorder=True)

    def pick(v, w):
        return v if pred(v) else w

    fibers = map(map, repeat(pick), _sources(plan, 0, a, c), _fibers(plan, 1, c))
    _store(plan, c, fibers)


# -- queries -----------------------------------------------------------------


def _hits(src, value, pred: Optional[Callable]):
    """``src``'s cursor and ``pred(x)`` (or ``x == value``) per element, in
    iteration order."""
    if (value is _MISSING) == (pred is None):
        raise ValueError("provide exactly one of value or pred")
    it, values = _in_order(src)
    if pred is None:
        return it, map(eq, values, repeat(value))
    return it, map(pred, values)


def count_matching(src, value=_MISSING, pred: Optional[Callable] = None) -> int:
    """Number of elements equal to ``value`` (or satisfying ``pred``)."""
    _, hits = _hits(src, value, pred)
    return sum(1 for _ in filter(None, hits))


def find_first(src, value=_MISSING, pred: Optional[Callable] = None):
    """Zero-based multi-index of the first match in iteration order, or
    None."""
    it, hits = _hits(src, value, pred)
    k = next(compress(count(), hits), None)
    return None if k is None else _unravel(k, it.extents)


def extremum_element(src, kind: str = "min"):
    """``(zero-based multi-index, value)`` of the smallest/largest element;
    ties go to the first occurrence in iteration order."""
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
    it, values = _in_order(src)
    pick = min if kind == "min" else max
    # min/max keep the first of equal keys and replace only on a strict
    # < (or >), the same sequential rule as a running-best scan.
    best = pick(enumerate(values), key=itemgetter(1), default=None)
    if best is None:
        return None, None
    return _unravel(best[0], it.extents), best[1]


def compare_ranges(a, b) -> CompareResult:
    """Elementwise equality with the first differing multi-index (iteration
    order) on mismatch.  Elements are compared with ``!=`` one by one, so a
    NaN never equals anything, itself included."""
    ia, ib = _mit(a), _mit(b)
    plan = _plan((ia, ib))
    if not any(_differs(plan, ia, ib)):
        return CompareResult(True, None)
    # Only a mismatch pays for counting positions: walk again to find it.
    k = next(compress(count(), _differs(plan, ia, ib)))
    return CompareResult(False, _unravel(k, ia.extents))


def quantify(src, pred: Callable, mode: str = "all") -> bool:
    """Quantifier over all elements: mode 'all', 'any' or 'none'."""
    if mode not in ("all", "any", "none"):
        raise ValueError(f"mode must be 'all', 'any' or 'none', got {mode!r}")
    _, values = _in_order(src)
    hits = map(pred, values)
    if mode == "all":
        return all(hits)
    return any(hits) if mode == "any" else not any(hits)


def all_of(src, pred) -> bool:
    return quantify(src, pred, "all")


def any_of(src, pred) -> bool:
    return quantify(src, pred, "any")


def none_of(src, pred) -> bool:
    return quantify(src, pred, "none")


# -- reductions -----------------------------------------------------------------


def accumulate(src, init=0, op: Optional[Callable] = None):
    """Left-fold of ``op`` (default ``+``) over elements in iteration order."""
    _, values = _in_order(src)
    return reduce(add if op is None else op, values, init)


def inner_product_flat(a, b, init=0):
    """``init + sum_i a[i] * b[i]`` over all shared multi-indices."""
    ia, ib = _mit(a), _mit(b)
    plan = _plan((ia, ib))
    return sum(map(mul, _values(plan, 0, ia), _values(plan, 1, ib)), init)
