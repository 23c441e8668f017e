"""Elementwise algorithm suite over multidimensional iterators.

Every function here accepts tensors, views, or raw
:class:`~tensorlib.iterators.MultiIterator` cursors, and combines operands
of identical shape but arbitrary (and mutually different) layouts.  All of
them run on one traversal, :func:`~tensorlib.iterators.plan_fibers`: the
loop nest is merged into innermost fibers, and a thin kernel handles each
fiber as a list slice (slice assignment for ``copy``/``fill``, ``map``
into a slice for transforms, ``map`` over the slices for comparisons and
reductions).  Multi-operand operations plan all cursors jointly, so
combined elements always share a zero-based multi-index.

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

Reductions fold left to right, one element at a time, in iteration order
(``acc = acc + x`` for ``accumulate``, ``acc += x * y`` for
``inner_product_flat``); no compensated or pairwise summation.  So a
floating-point reduction gives bit-identical results across layouts and
views within one Python version.

In-place use with identical source and destination (for example
``transform_unary(t, t, f)``) is supported.  Source and destination that
overlap only partially give unspecified results.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import eq, itemgetter, mul, ne
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Tuple

from .iterators import FiberPlan, MultiIterator, plan_fibers

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
    """Normalize to a MultiIterator cursor."""
    if isinstance(source, MultiIterator):
        return source
    return source.miter()


# -- fiber kernels -------------------------------------------------------------


def _fibers(plan: FiberPlan, k: int, it: MultiIterator) -> Iterator[list]:
    """Cursor ``k``'s fibers as lists, in plan order."""
    return map(it.data.__getitem__, plan.slices(k))


def _values(plan: FiberPlan, k: int, it: MultiIterator) -> Iterator:
    """Cursor ``k``'s elements, fiber after fiber."""
    return chain.from_iterable(_fibers(plan, k, it))


def _store(plan: FiberPlan, dst: MultiIterator, fibers: Iterable) -> None:
    """Write one iterable per fiber into the plan's last cursor ``dst``.

    A fiber is read in full before it is written, so a source fiber may
    sit at the same positions as its destination fiber.
    """
    deque(map(dst.data.__setitem__, plan.slices(-1), fibers), maxlen=0)


# Cursor-level kernels of copy, fill and compare_ranges; the container paths
# (relayout, assign, materialize, tensors_equal, transpose) call them
# directly on cursors they have built.


def _copy(a: MultiIterator, c: MultiIterator) -> None:
    plan = plan_fibers((a, c), reorder=True)
    _store(plan, c, _fibers(plan, 0, a))


def _fill(c: MultiIterator, value) -> None:
    plan = plan_fibers((c,), reorder=True)
    _store(plan, c, repeat([value] * plan.length))


def _compare(ia: MultiIterator, ib: MultiIterator) -> CompareResult:
    plan = plan_fibers((ia, ib))
    differs = map(ne, _values(plan, 0, ia), _values(plan, 1, ib))
    k = next(compress(count(), differs), None)
    if k is None:
        return CompareResult(True, None)
    return CompareResult(False, _unravel(k, ia.extents))


def _unravel(k: int, extents) -> Tuple[int, ...]:
    """Zero-based multi-index of the k-th element in iteration order."""
    idx = []
    for n in extents:
        k, i = divmod(k, n)
        idx.append(i)
    return tuple(idx)


def _in_order(src) -> Tuple[MultiIterator, Iterator]:
    """``src``'s cursor and its elements in iteration order."""
    it = _mit(src)
    return it, _values(plan_fibers((it,)), 0, it)


# -- mutating suite ----------------------------------------------------------


def for_each(a, fn: Callable) -> None:
    """Replace every element ``x`` with ``fn(x)``, exactly once per element."""
    it = _mit(a)
    plan = plan_fibers((it,), reorder=True)
    _store(plan, it, map(map, repeat(fn), _fibers(plan, 0, it)))


def fill(dst, value) -> None:
    """Set every element to ``value``."""
    _fill(_mit(dst), value)


def generate(dst, gen: Callable) -> None:
    """Fill with successive results of the nullary ``gen``, in iteration
    order.  Index-dependent values are expressible as iota + transform."""
    it = _mit(dst)
    plan = plan_fibers((it,))
    n = plan.length
    for sl in plan.slices(0):
        it.data[sl] = [gen() for _ in range(n)]


def iota(dst, start=0) -> None:
    """Write ``start, start + 1, ...`` in iteration order."""
    generate(dst, count(start).__next__)


def transform_unary(src, dst, fn: Callable) -> None:
    """``dst[i] = fn(src[i])`` for every zero-based multi-index ``i``."""
    a, c = _mit(src), _mit(dst)
    plan = plan_fibers((a, c), reorder=True)
    _store(plan, c, map(map, repeat(fn), _fibers(plan, 0, a)))


def transform_binary(a, b, dst, op: Callable) -> None:
    """``dst[i] = op(a[i], b[i])`` with all three iterated in lockstep."""
    ia, ib, ic = _mit(a), _mit(b), _mit(dst)
    plan = plan_fibers((ia, ib, ic), reorder=True)
    fibers = map(map, repeat(op), _fibers(plan, 0, ia), _fibers(plan, 1, ib))
    _store(plan, ic, fibers)


def copy(src, dst) -> None:
    """``dst[i] = src[i]``; layouts may differ."""
    _copy(_mit(src), _mit(dst))


def copy_if(src, dst, pred: Callable) -> None:
    """Copy only elements satisfying ``pred``; other destination elements
    stay untouched."""
    a, c = _mit(src), _mit(dst)
    plan = plan_fibers((a, c), reorder=True)

    def pick(v, w):
        return v if pred(v) else w

    fibers = map(map, repeat(pick), _fibers(plan, 0, a), _fibers(plan, 1, c))
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
    return _compare(_mit(a), _mit(b))


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
    if op is not None:
        return reduce(op, values, init)
    acc = init
    for v in values:
        acc = acc + v
    return acc


def inner_product_flat(a, b, init=0):
    """``init + sum_i a[i] * b[i]`` over all shared multi-indices."""
    ia, ib = _mit(a), _mit(b)
    plan = plan_fibers((ia, ib))
    acc = init
    for t in map(mul, _values(plan, 0, ia), _values(plan, 1, ib)):
        acc += t
    return acc
