"""Randomized brute-force verification of the algorithm suites.

Every operation family is checked against a naive oracle.  It reads each
operand once into a flat list in ``zero_indices`` order (dimension 1
fastest) and recomputes the operation from those lists: elementwise
families with list comprehensions, and transpose, ttv, ttm, ttt, the outer
and inner products and the ``times_*`` chains with one einsum-style label
oracle, :func:`contract`.  Comparison is exact for both scalar kinds: a
result passes on one ``==`` between the expected list and the result read
as a list, and only a mismatch walks the elements to report the first
unequal index.  A family that writes through a view also requires every
element of the root tensor outside the view to be unchanged.  Every
library call goes through :meth:`_Comparator.run`, which calls the kernel
and judges it; a kernel that raises fails its trial with ``error`` and
``where``, and the run goes on.  Trials randomize order, extents, layout
(uniform over all permutations), offsets (in [-2, 2]), element kind, and
whether each operand is a tensor or a strided view.

The oracle shares no addressing code with the engine it checks.  It finds
every element's memory position with its own stride arithmetic: a
tensor's strides from its shape and layout by its own loop (never
``meta.strides`` or ``compute_strides``), and a view's, at any depth of
views of views, from its target's strides found the same way and the
view's resolved ranges, never from a view's frame (``meta``, ``strides``,
``gamma``, ``views._frame``), and turns them into positions by strided
runs of its own (:func:`_grid`), reading a grid that is one run of
positive step as one slice.  It calls and shares no code with the fiber
planner (``iterators._plan``, ``plan_fibers``, ``check_reach``), element
access (``_Strided._key_to_memory``) or ``TensorMeta``'s stride loop, so
a wrong plan, view frame or stride cannot also corrupt the expected values.
It sets operands up and serializes counterexamples by the same reads,
never through ``copy`` or ``materialize``, so a wrong kernel fails its
own family alone.

Elements of operands and scalar parameters come from ``_rand_values``:
int64 trials draw small signed integers in [-9, 9].  Those and the
other integers an instance draws (orders, extents, offsets, view
steps, ttv and ttm modes, start values) come from ``_randints``, which
reproduces CPython's ``randint`` from ``getrandbits`` (for the elements,
one Mersenne Twister word per ``getrandbits(5)``, redrawn while the word
is 19 or more; a buffer of 64 or more elements takes the same words a
batch per round, through one ``getrandbits(32 * w)``), so it yields the
values ``randint`` would and leaves the stream in the same state (CPython
3.10 to 3.13).  Layouts, ``tau``, ``phi`` and ``psi`` come from
``rng.shuffle``.  ``tests/test_verify.py`` checks ``_randints`` against
``randint`` and pins every family's stream state after 20 trials.
The ``times_*`` modes come from ``sample``; needles, operator names and
``compare_ranges``' changed element from ``choice``; and whether an
operand is a view from ``random()``.
float64 trials draw positive values (``0.5 + 1.5 * random()``, the value
``uniform(0.5, 2.0)`` computes).  They too must match to the bit: the
oracle sums in the engine's order with the engine's primitives (``sum``
and left folds), so no tolerance is needed, and the draws stay positive
only so that the pinned streams do not move.

Randomness comes from :class:`random.Random` (Mersenne Twister), which is
platform-independent and string-seedable; each family runs on its own
stream seeded with ``"{seed}:{family}:{kind}"`` so failures reproduce in
isolation.
"""

from __future__ import annotations

import itertools
import json
import os
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field
from functools import cache, partial, reduce
from math import hypot, prod
from operator import add, mul, ne
from typing import Callable, List, Optional, Tuple

from . import contraction as ct
from . import elementwise as ew
from .layout import _as_indices, _index, zero_indices
from .tensor import DenseTensor
from .views import Range, TensorView

__all__ = ["RunConfig", "VerifyReport", "FamilyResult", "run_verification", "FAMILIES"]
_SCALAR_KINDS = ("int64", "float64")


@dataclass
class RunConfig:
    """Knobs of one verification run."""

    seed: int = 42
    trials: int = 100
    max_order: int = 4
    max_extent: int = 5
    scalar_kind: str = "float64"

    def __post_init__(self):
        (self.seed,) = _as_indices((self.seed,), "seed")
        self.trials = _index(self.trials, "trials", 1)
        # ttv, ttm and the times_* chains need order 2 or more.
        self.max_order = _index(self.max_order, "max_order", 2, 6)
        self.max_extent = _index(self.max_extent, "max_extent", 1)
        if self.scalar_kind not in _SCALAR_KINDS:
            raise ValueError(f"unknown scalar kind {self.scalar_kind!r}")


@dataclass
class FamilyResult:
    name: str
    trials: int
    passes: int
    failure: Optional[dict] = None


@dataclass
class VerifyReport:
    config: RunConfig
    families: List[FamilyResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.passes == f.trials for f in self.families)

    def to_text(self) -> str:
        lines = [
            f"verify seed={self.config.seed} trials={self.config.trials} "
            f"max-order={self.config.max_order} max-extent={self.config.max_extent} "
            f"scalar={self.config.scalar_kind}"
        ]
        for f in self.families:
            status = "pass" if f.passes == f.trials else "FAIL"
            lines.append(f"{f.name:<24} {f.passes}/{f.trials} {status}")
            if f.failure is not None:
                lines.append(
                    "  counterexample: " + json.dumps(f.failure, sort_keys=True)
                )
        total = sum(f.trials for f in self.families)
        bad = sum(f.trials - f.passes for f in self.families)
        lines.append(
            f"total: {len(self.families)} families, {total} trials, {bad} failures"
        )
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "seed": self.config.seed,
            "trials": self.config.trials,
            "max_order": self.config.max_order,
            "max_extent": self.config.max_extent,
            "scalar": self.config.scalar_kind,
            "ok": self.ok,
            "families": [asdict(f) for f in self.families],
        }


# -- random instances -------------------------------------------------------


def _rand_shape(rng, cfg: RunConfig, min_order: int = 1) -> Tuple[int, ...]:
    (p,) = _randints(rng, min_order, cfg.max_order, 1)
    return tuple(_randints(rng, 1, cfg.max_extent, p))


def _rand_layout(rng, p: int) -> Tuple[int, ...]:
    """A permutation of 1..p, drawn by ``rng.shuffle``."""
    perm = list(range(1, p + 1))
    rng.shuffle(perm)
    return tuple(perm)


def _rand_offsets(rng, p: int) -> Tuple[int, ...]:
    return tuple(_randints(rng, -2, 2, p))


def _rand_values(rng, kind: str, count: int) -> list:
    """``count`` elements of ``kind``: every element an instance draws."""
    if kind == "int64":
        return _randints(rng, -9, 9, count)
    rand = rng.random
    return [0.5 + 1.5 * rand() for _ in range(count)]


def _randints(rng, lo: int, hi: int, count: int) -> List[int]:
    """``[rng.randint(lo, hi) for _ in range(count)]``, drawn from the same
    words of the same stream, without three Python frames per draw.

    This is CPython's ``randint``: ``lo + _randbelow(n)`` with
    ``n = hi - lo + 1``, where ``_randbelow`` draws ``getrandbits(k)`` with
    ``k = n.bit_length()`` (not ``(n - 1).bit_length()``) and redraws while
    the word is ``>= n``.  Every instance draw goes through here, so an
    empty range raises ``ValueError`` as ``randint`` does, instead of
    redrawing forever.

    ``getrandbits(k)``, ``k <= 32``, is the top ``k`` bits of one word and
    ``getrandbits(32 * w)`` is ``w`` words, the first lowest.  So from 64
    values (below, the loop is faster) of at most 8 bits that fit a signed
    byte, each round takes as many words as values are missing, which the
    loop would take too, and one ``bytes.translate`` maps each word's top
    byte to its value or deletes it.
    """
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty range for randint: [{lo}, {hi}]")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    if count >= 64 and k <= 8 and -128 <= lo and hi <= 127:
        table, delete = _byte_draws(lo, n)
        got = b""
        while len(got) < count:
            need = count - len(got)
            words = getrandbits(32 * need).to_bytes(4 * need, "little")
            got += words[3::4].translate(table, delete)
        return memoryview(got).cast("b").tolist()
    out = []
    append = out.append
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(lo + r)
    return out


@cache
def _byte_draws(lo: int, n: int) -> Tuple[bytes, bytes]:
    """:func:`_randints`' ``bytes.translate`` arguments: top byte ``b`` maps
    to the byte of ``lo + (b >> (8 - n.bit_length()))``; draws ``>= n`` go."""
    shift = 8 - n.bit_length()
    table = bytes((lo + (b >> shift)) & 255 for b in range(256))
    return table, bytes(range(n << shift, 256))


def _rand_tensor(rng, shape, kind: str = "int64") -> DenseTensor:
    p = len(shape)
    offsets, layout = _rand_offsets(rng, p), _rand_layout(rng, p)
    data = _rand_values(rng, kind, prod(shape))
    return DenseTensor.from_memory(shape, data, offsets, layout)


def _rand_operand(rng, shape, kind: str = "int64"):
    """A tensor of ``shape``, or a stepped view of that shape into a larger
    random parent."""
    if rng.random() < 0.5:
        return _rand_tensor(rng, shape, kind)
    p = len(shape)
    steps = _randints(rng, 1, 2, p)
    leads = _randints(rng, 0, 1, p)
    trails = _randints(rng, 0, 1, p)
    parent_shape = tuple(
        lead + t * (n - 1) + 1 + trail
        for n, t, lead, trail in zip(shape, steps, leads, trails)
    )
    parent = _rand_tensor(rng, parent_shape, kind)
    ranges = []
    for r in range(p):
        f = parent.offsets[r] + leads[r]
        ranges.append(Range(f, steps[r], f + steps[r] * (shape[r] - 1)))
    return TensorView(parent, ranges)


def _rand_operands(rng, cfg: RunConfig, count: int, min_order: int = 1):
    """A random shape, then ``count`` random operands of that shape."""
    shape = _rand_shape(rng, cfg, min_order)
    return (shape, *[_rand_operand(rng, shape, cfg.scalar_kind) for _ in range(count)])


# -- oracle plumbing -----------------------------------------------------------


def _box_frame(x):
    """``(root, shape, strides, gamma)`` of a tensor or view, derived here:
    the element at zero-based multi-index ``i`` sits at
    ``gamma + sum_r strides[r] * i[r]`` in the buffer of the tensor
    ``root``.

    A tensor is its own root, with ``gamma`` 0 and the strides of its
    shape and layout, found by the oracle's own loop over the stride rule,
    never read from ``meta.strides`` or ``compute_strides``.  A view, at
    any depth, takes its target's frame and its own resolved ranges over
    the target's index box (the root's offsets ``o`` and the target's
    extents): extent ``(last - first) // step + 1``, stride ``w * step``
    and ``gamma`` plus ``sum_r w[r] * (first[r] - o[r])``.  A range that no
    longer fits that box raises ``IndexError`` naming the dimension.
    """
    if not isinstance(x, TensorView):
        shape, strides, w = x.shape, [0] * len(x.shape), 1
        for q in x.layout:  # the stride rule, walking the layout
            strides[q - 1], w = w, w * shape[q - 1]
        return x, shape, strides, 0
    root, t_shape, t_strides, gamma = _box_frame(x.target)
    if len(x.ranges) != len(t_shape):
        raise IndexError(
            f"view of order {len(x.ranges)} has no match for dimension "
            f"{min(len(x.ranges), len(t_shape)) + 1} of its target, "
            f"now of order {len(t_shape)}"
        )
    shape, strides = [], []
    for dim, ((f, step, l), o, n, w) in enumerate(
        zip(x.ranges, root.offsets, t_shape, t_strides), start=1
    ):
        if not (o <= f and l < o + n):
            raise IndexError(
                f"range [{f}:{step}:{l}] out of bounds [{o}, {o + n}) "
                f"in dimension {dim}"
            )
        shape.append((l - f) // step + 1)
        strides.append(w * step)
        gamma += w * (f - o)
    return root, tuple(shape), strides, gamma


def _grid(gamma: int, strides, shape):
    """``gamma + sum_r strides[r] * i[r]`` for every zero-based multi-index
    ``i`` of ``shape``, in ``zero_indices`` order (dimension 1 fastest).

    Extent-1 dimensions are skipped, and dimension r+1 joins the strided
    run of dimension r when ``strides[r+1] == strides[r] * shape[r]``; a
    grid that is one run of nonzero stride comes back as a ``range``, and
    an outer run of stride 0 repeats the positions inside it."""
    runs = []  # [stride, extent], innermost first
    for w, n in zip(strides, shape):
        if runs and w == runs[-1][0] * runs[-1][1]:
            runs[-1][1] *= n
        elif n != 1:
            runs.append([w, n])
    (w, n), *outer = runs or [(1, 1)]
    positions = range(gamma, gamma + n * w, w) if w else [gamma] * n
    for w, n in outer:
        if w:
            steps = [w * i for i in range(n)]
            positions = [p + s for s in steps for p in positions]
        else:
            positions = [*positions] * n
    return positions


def _positions(x):
    """``(root, shape, positions)``: ``x``'s elements sit at ``positions``
    in ``root.data``, in ``zero_indices`` order."""
    root, shape, strides, gamma = _box_frame(x)
    return root, shape, _grid(gamma, strides, shape)


def _read(data: list, positions) -> list:
    """``[data[p] for p in positions]``: one slice where ``positions`` is a
    ``range`` of positive step that ends inside ``data``."""
    if type(positions) is range and positions.step > 0 and positions[-1] < len(data):
        return data[positions.start : positions.stop : positions.step]
    return list(map(data.__getitem__, positions))


def read_flat(x) -> list:
    """A tensor's or view's elements in ``zero_indices`` order, read from
    its buffer at positions from the oracle's own stride arithmetic (see
    the module docstring)."""
    root, _, positions = _positions(x)
    return _read(root.data, positions)


def read_box(x) -> dict:
    """:func:`read_flat` as a dict keyed by zero-based multi-index."""
    root, shape, positions = _positions(x)
    return dict(zip(zero_indices(shape), _read(root.data, positions)))


def _unravel(k: int, shape, order=None) -> Tuple[int, ...]:
    """The zero-based multi-index at position ``k`` of a dense box whose
    dimensions run fastest to slowest in ``order`` (one-based; 1..p default)."""
    index = [0] * len(shape)
    for r in order or range(1, len(shape) + 1):
        k, index[r - 1] = divmod(k, shape[r - 1])
    return tuple(index)


def contract(out, summed, *operands):
    """Reference einsum over flat lists: the result's values and shape.

    An operand is ``(values, shape, labels)``: its elements in
    ``zero_indices`` order and one distinct label per dimension.  Output
    dimension ``r`` carries label ``out[r]`` (none: one element).  The loop
    nest runs the output labels, dimension 1 fastest, then the ``summed``
    labels, the last fastest.  Each operand is read once over the nest
    labels it has, at positions from its own dense strides through
    :func:`_grid`, independent of the engine's plans.  Then each nest
    label it lacks, innermost first, repeats what lies inside it: each
    value (an innermost label), each block (one in between) or the whole
    column (an outermost one).  The operands' elements are multiplied
    with ``map(mul, ...)`` in operand order and each output's block is
    added by ``sum`` in nest order, which up to Python 3.11 gives the
    bits of ``acc = 0; acc += a * b`` loops.
    """
    sizes = {}
    for _, shape, labels in operands:
        sizes.update(zip(labels, shape))
    nest = [*reversed(summed), *out]  # innermost first, as _grid takes it
    terms = None
    for values, shape, labels in operands:
        stride, w = {}, 1
        for label, n in zip(labels, shape):
            stride[label], w = w, w * n
        strides = [stride[l] for l in nest if l in stride]
        extents = [sizes[l] for l in nest if l in stride]
        positions = _grid(0, strides, extents)
        if len(extents) == len(nest) and type(positions) is list:
            # Nothing to repeat: the products read the elements lazily.
            column = map(values.__getitem__, positions)
        else:
            column = _read(values, positions)
            inner = 1  # the nest's size inside label l: column's block size
            for l in nest:
                n = sizes[l]
                if l not in stride and n > 1:
                    if inner == 1:
                        column = list(itertools.chain.from_iterable(zip(*[column] * n)))
                    elif inner == len(column):
                        column *= n
                    else:
                        blocks = zip(*[iter(column)] * inner)
                        column = list(itertools.chain.from_iterable(b * n for b in blocks))
                inner *= n
        terms = column if terms is None else map(mul, terms, column)
    block = prod(sizes[l] for l in summed)
    if block > 1:
        terms = map(sum, zip(*[iter(terms)] * block))
    return list(terms), tuple(sizes[l] for l in out)


def _times(values, shape, b, b_shape, m: int):
    """``contract`` as ``ttv`` (``b`` a vector) or ``ttm`` (``b`` a
    matrix, its rows against mode ``m``) of ``(values, shape)``."""
    dims = range(1, len(shape) + 1)
    a = (values, shape, [0 if r == m else r for r in dims])
    if len(b_shape) == 1:
        return contract([r for r in dims if r != m], (0,), a, (b, b_shape, (0,)))
    return contract(dims, (0,), a, (b, b_shape, (m, 0)))


def _operand_json(x, buffer=None) -> dict:
    """``x`` as tensor JSON, read from ``buffer`` in place of its root's
    buffer when one is given.  A view reads as its materialization would
    (first-order layout, zero offsets, its elements in ``zero_indices``
    order), at the oracle's own positions, plus ``"view": True``."""
    root, shape, positions = _positions(x)
    data = root.data if buffer is None else buffer
    if x is root:
        return dict(x.to_dict(), data=list(data))
    p = len(shape)
    out = {"shape": list(shape), "layout": list(range(1, p + 1)), "offsets": [0] * p}
    return dict(out, data=_read(data, positions), view=True)


def _json_value(v):
    """``v`` with every operand in it, alone or in a list, serialized."""
    if isinstance(v, (DenseTensor, TensorView)):
        return _operand_json(v)
    return list(map(_json_value, v)) if isinstance(v, list) else v


def _counterexample(context: dict, **found) -> dict:
    """``context`` with its operands serialized, followed by ``found``."""
    out = {k: _json_value(v) for k, v in context.items()}
    out.update(found)
    return out


class _Comparator:
    """Exact judgement of every library call the oracle makes, all through
    :meth:`run`, with the same ``==`` for both scalar kinds (``kind`` names
    the run's kind); a kernel that raises is a failure, not the run's end.
    Stateless, so one instance serves every trial; a context's operands
    are serialized, by the oracle's own reads, only on a failure."""

    def __init__(self, kind: str):
        self.kind = kind

    def run(self, context: dict, expected, kernel, args, shape=None, dst=None):
        """Call ``kernel(*args)`` and judge the operand it writes (``dst``;
        a view's against a copy of its root's buffer taken before the call)
        or the tensor it returns (``shape`` given) by :meth:`check_list`, or
        the value it returns by ``==``.  A raise fails with ``error`` (type
        and message) and ``where`` (file and line of the innermost frame).
        A failing write also reports ``dst`` as it was, under ``dst_before``,
        from which expected values such as ``copy_if``'s can be rebuilt."""
        before = None if dst is None else dst.data[:]  # a view's data is its root's buffer
        try:
            got = kernel(*args)
        except Exception as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
            bad = _counterexample(context, error=f"{type(exc).__name__}: {exc}", where=where)
        else:
            if shape is not None:
                window = before if isinstance(dst, TensorView) else None
                got = got if dst is None else dst
                bad = self.check_list(expected, shape, got, context, window)
            elif expected == got:
                return None
            else:
                bad = _counterexample(context, expected=repr(expected), got=repr(got))
        if bad is not None and dst is not None:
            bad["dst_before"] = _operand_json(dst, before)
        return bad

    def check_list(self, expected: list, shape, got, context: dict, before=None):
        """Compare ``expected``, in ``zero_indices`` order, with ``got`` read
        by :func:`read_flat`: one ``==``, and only on a mismatch a walk to
        the first unequal element.  ``before``, a copy of the buffer of
        ``got``'s root taken before a write (see :meth:`run`), gets the
        window's values written into it and must then equal the whole
        buffer; a difference is reported at the root's multi-index, and
        ``before`` is left as it was given."""
        root, got_shape, positions = _positions(got)
        if tuple(shape) != got_shape:
            found = {"expected_shape": list(shape), "got_shape": list(got_shape)}
            return _counterexample(context, **found)
        data = root.data
        values = _read(data, positions)
        if values != expected:
            k = list(map(ne, expected, values)).index(True)
            found = {"expected": repr(expected[k]), "got": repr(values[k])}
            return _counterexample(context, **found, index=list(_unravel(k, shape)))
        if before is None:
            return None
        window = _read(before, positions)
        deque(map(before.__setitem__, positions, values), maxlen=0)
        if before == data:
            return None
        k = list(map(ne, before, data)).index(True)
        deque(map(before.__setitem__, positions, window), maxlen=0)
        index = list(_unravel(k, root.shape, root.layout))
        found = {"expected": repr(before[k]), "got": repr(data[k]), "index": index}
        return _counterexample(context, **found, outside_view=True)


# -- elementwise families ---------------------------------------------------------


def _check_for_each(rng, cfg, cmp):
    shape, x = _rand_operands(rng, cfg, 1)
    (alpha,) = _rand_values(rng, cfg.scalar_kind, 1)
    f = lambda v: v * 2 + alpha
    expected = list(map(f, read_flat(x)))
    ctx = {"op": "for_each", "alpha": alpha}
    return cmp.run(ctx, expected, ew.for_each, (x, f), shape, x)


def _check_transform_unary(rng, cfg, cmp):
    shape, src, dst = _rand_operands(rng, cfg, 2)
    (alpha,) = _rand_values(rng, cfg.scalar_kind, 1)
    f = lambda v: v * alpha
    expected = list(map(f, read_flat(src)))
    ctx = {"op": "transform_unary", "alpha": alpha, "src": src}
    return cmp.run(ctx, expected, ew.transform_unary, (src, dst, f), shape, dst)


def _check_transform_binary(rng, cfg, cmp):
    shape, a, b, dst = _rand_operands(rng, cfg, 3)
    ops = {"add": lambda x, y: x + y, "mul": lambda x, y: x * y}
    if cfg.scalar_kind == "int64":
        ops["sub"] = lambda x, y: x - y
    name = rng.choice(sorted(ops))
    op = ops[name]
    expected = list(map(op, read_flat(a), read_flat(b)))
    ctx = {"op": f"transform_binary[{name}]", "a": a, "b": b}
    return cmp.run(ctx, expected, ew.transform_binary, (a, b, dst, op), shape, dst)


def _check_copy(rng, cfg, cmp):
    shape, src, dst = _rand_operands(rng, cfg, 2)
    ctx = {"op": "copy", "src": src}
    return cmp.run(ctx, read_flat(src), ew.copy, (src, dst), shape, dst)


def _check_copy_if(rng, cfg, cmp):
    shape, src, dst = _rand_operands(rng, cfg, 2)
    threshold = 0 if cfg.scalar_kind == "int64" else 1.0
    pred = lambda v: v > threshold
    expected = [s if pred(s) else d for s, d in zip(read_flat(src), read_flat(dst))]
    ctx = {"op": "copy_if", "threshold": threshold, "src": src}
    return cmp.run(ctx, expected, ew.copy_if, (src, dst, pred), shape, dst)


def _check_fill(rng, cfg, cmp):
    shape, dst = _rand_operands(rng, cfg, 1)
    (v,) = _rand_values(rng, cfg.scalar_kind, 1)
    ctx = {"op": "fill", "value": v}
    return cmp.run(ctx, [v] * prod(shape), ew.fill, (dst, v), shape, dst)


def _check_count_up(op: str, lo: int, hi: int, rng, cfg, cmp):
    """``generate`` from a counter or ``iota``, from a start in [lo, hi]."""
    shape, dst = _rand_operands(rng, cfg, 1)
    (start,) = _randints(rng, lo, hi, 1)
    expected = list(range(start, start + prod(shape)))
    arg = itertools.count(start).__next__ if op == "generate" else start
    ctx = {"op": op, "start": start}
    return cmp.run(ctx, expected, getattr(ew, op), (dst, arg), shape, dst)


def _check_count(rng, cfg, cmp):
    _, x = _rand_operands(rng, cfg, 1)
    values = read_flat(x)
    needle = rng.choice(sorted(values, key=repr))
    ctx = {"op": "count_matching[value]", "needle": needle, "a": x}
    bad = cmp.run(ctx, values.count(needle), partial(ew.count_matching, value=needle), (x,))
    threshold = 0 if cfg.scalar_kind == "int64" else 1.0
    pred = lambda v: v <= threshold
    ctx = {"op": "count_matching[pred]", "threshold": threshold, "a": x}
    expected = sum(map(pred, values))
    return bad or cmp.run(ctx, expected, partial(ew.count_matching, pred=pred), (x,))


def _check_extremum(rng, cfg, cmp):
    shape, x = _rand_operands(rng, cfg, 1)
    values, bad = read_flat(x), None
    for kind, pick in (("min", min), ("max", max)):
        # Both keep the first of equal elements, as the kernel must.
        k = pick(range(len(values)), key=values.__getitem__)
        ctx = {"op": f"extremum_element[{kind}]", "a": x}
        expected = (_unravel(k, shape), values[k])
        bad = bad or cmp.run(ctx, expected, ew.extremum_element, (x, kind))
    return bad


def _check_find(rng, cfg, cmp):
    shape, x = _rand_operands(rng, cfg, 1)
    values = read_flat(x)
    needle = rng.choice(sorted(values, key=repr))
    ctx = {"op": "find_first[present]", "needle": needle, "a": x}
    expected = _unravel(values.index(needle), shape)
    bad = cmp.run(ctx, expected, partial(ew.find_first, value=needle), (x,))
    absent = 10**6 if cfg.scalar_kind == "int64" else -1.0
    ctx = {"op": "find_first[absent]", "needle": absent, "a": x}
    return bad or cmp.run(ctx, None, partial(ew.find_first, value=absent), (x,))


def _check_compare(rng, cfg, cmp):
    shape, a, b = _rand_operands(rng, cfg, 2)
    # Drawn from the sorted multi-indices; k is the zero_indices position.
    victim = _unravel(rng.choice(range(prod(shape))), shape, range(len(shape), 0, -1))
    k = sum(i * prod(shape[:r]) for r, i in enumerate(victim))
    va, (root, _, positions) = read_flat(a), _positions(b)
    for p, v in zip(positions, va):  # b holds a's values
        root.data[p] = v
    ctx = {"op": "compare_ranges[equal]", "a": a, "b": b}
    bad = cmp.run(ctx, ew.CompareResult(True, None), ew.compare_ranges, (a, b))
    root.data[positions[k]] = va[k] + 1
    ctx["op"] = "compare_ranges[mismatch]"
    return bad or cmp.run(ctx, ew.CompareResult(False, victim), ew.compare_ranges, (a, b))


def _check_quantify(rng, cfg, cmp):
    _, x = _rand_operands(rng, cfg, 1)
    values, bad = read_flat(x), None
    (threshold,) = _rand_values(rng, cfg.scalar_kind, 1)
    pred = lambda v: v >= threshold
    hits = [v for v in values if pred(v)]
    expect = {"all": len(hits) == len(values), "any": bool(hits), "none": not hits}
    for mode, exp in expect.items():
        ctx = {"op": f"quantify[{mode}]", "threshold": threshold, "a": x}
        bad = bad or cmp.run(ctx, exp, ew.quantify, (x, pred, mode))
    return bad


def _check_accumulate(rng, cfg, cmp):
    _, x = _rand_operands(rng, cfg, 1)
    (init,) = _rand_values(rng, cfg.scalar_kind, 1)
    ctx = {"op": "accumulate", "init": init, "a": x}
    return cmp.run(ctx, reduce(add, read_flat(x), init), ew.accumulate, (x, init))


def _check_inner_flat(rng, cfg, cmp):
    _, a, b = _rand_operands(rng, cfg, 2)
    (init,) = _rand_values(rng, cfg.scalar_kind, 1)
    expected = sum(map(mul, read_flat(a), read_flat(b)), init)
    ctx = {"op": "inner_product_flat", "init": init, "a": a, "b": b}
    return cmp.run(ctx, expected, ew.inner_product_flat, (a, b, init))


# -- contraction families -------------------------------------------------------------


def _check_transpose(rng, cfg, cmp):
    shape, x = _rand_operands(rng, cfg, 1)
    tau = list(_rand_layout(rng, len(shape)))
    expected, out_shape = contract(tau, (), (read_flat(x), shape, sorted(tau)))
    ctx = {"op": "transpose", "tau": tau, "a": x}
    return cmp.run(ctx, expected, ct.transpose, (x, tau), out_shape)


def _vector(rng, cfg, n: int):
    """A random length-``n`` operand: ``ttv``'s."""
    return _rand_operand(rng, (n,), cfg.scalar_kind)


def _matrix(rng, cfg, n: int):
    """A random ``(rows, n)`` operand, ``rows`` drawn first: ``ttm``'s."""
    (rows,) = _randints(rng, 1, cfg.max_extent, 1)
    return _rand_operand(rng, (rows, n), cfg.scalar_kind)


def _check_mode_product(op: str, draw, rng, cfg, cmp):
    """``ttv`` (``draw``: :func:`_vector`) or ``ttm`` (:func:`_matrix`)."""
    shape, a = _rand_operands(rng, cfg, 1, min_order=2)
    (m,) = _randints(rng, 1, len(shape), 1)
    b = draw(rng, cfg, shape[m - 1])
    expected, out_shape = _times(read_flat(a), shape, read_flat(b), b.shape, m)
    ctx = {"op": op, "mode": m, "a": a, "b": b}
    return cmp.run(ctx, expected, getattr(ct, op), (a, b, m), out_shape)


def _rand_ttt_instance(rng, cfg):
    (pa,) = _randints(rng, 1, cfg.max_order, 1)
    (q,) = _randints(rng, 0, pa, 1)
    r = pa - q
    s_min = 0 if q else 1
    (s,) = _randints(rng, s_min, max(s_min, cfg.max_order - q), 1)
    pb = q + s
    na = tuple(_randints(rng, 1, cfg.max_extent, pa))
    phi, psi = _rand_layout(rng, pa), _rand_layout(rng, pb)
    nb = [0] * pb
    for d, n in zip(psi, _randints(rng, 1, cfg.max_extent, s)):
        nb[d - 1] = n
    for k in range(q):
        nb[psi[s + k] - 1] = na[phi[r + k] - 1]
    return na, tuple(nb), ct.ContractionSpec(q, phi, psi)


def _check_ttt(rng, cfg, cmp):
    na, nb, spec = _rand_ttt_instance(rng, cfg)
    a = _rand_operand(rng, na, cfg.scalar_kind)
    b = _rand_operand(rng, nb, cfg.scalar_kind)
    # Labels: A's free dimensions 0..r-1 and B's r..r+s-1, in output order,
    # then the contracted pairs r+s.. in phi and psi order.
    q, phi, psi = spec.q, spec.phi, spec.psi
    r, s = len(na) - q, len(nb) - q
    la, lb = [0] * len(na), [0] * len(nb)
    for k, d in enumerate(phi):
        la[d - 1] = k if k < r else s + k
    for k, d in enumerate(psi):
        lb[d - 1] = r + k
    ta, tb = (read_flat(a), na, la), (read_flat(b), nb, lb)
    expected, out_shape = contract(range(r + s), range(r + s, r + s + q), ta, tb)
    ctx = {"op": "ttt", "q": q, "phi": list(phi), "psi": list(psi), "a": a, "b": b}
    return cmp.run(ctx, expected, ct.ttt, (a, b, spec), out_shape or (1,))


def _check_outer(rng, cfg, cmp):
    na, nb = _rand_shape(rng, cfg), _rand_shape(rng, cfg)
    if len(na) + len(nb) > 6:
        nb = nb[: 6 - len(na)] or tuple(_randints(rng, 1, cfg.max_extent, 1))
    a = _rand_operand(rng, na, cfg.scalar_kind)
    b = _rand_operand(rng, nb, cfg.scalar_kind)
    pa, pc = len(na), len(na) + len(nb)
    ta, tb = (read_flat(a), na, range(pa)), (read_flat(b), nb, range(pa, pc))
    expected, out_shape = contract(range(pc), (), ta, tb)
    ctx = {"op": "outer_product", "a": a, "b": b}
    return cmp.run(ctx, expected, ct.outer_product, (a, b), out_shape)


def _check_inner(rng, cfg, cmp):
    shape, a, b = _rand_operands(rng, cfg, 2)
    # Summing the labels highest first puts dimension 1 fastest.
    dims = range(1, len(shape) + 1)
    ta, tb = (read_flat(a), shape, dims), (read_flat(b), shape, dims)
    (expected,), _ = contract((), dims[::-1], ta, tb)
    ctx = {"op": "inner_product_tensors", "a": a, "b": b}
    return cmp.run(ctx, expected, ct.inner_product_tensors, (a, b))


def _check_norm(rng, cfg, cmp):
    a = _rand_operand(rng, _rand_shape(rng, cfg), "float64")
    # hypot of the hypots of 4096-element runs in zero_indices order.
    values = read_flat(a)
    expected = hypot(*[hypot(*values[i : i + 4096]) for i in range(0, len(values), 4096)])
    return cmp.run({"op": "frobenius_norm", "a": a}, expected, ct.frobenius_norm, (a,))


def _check_chain(op: str, draw, rng, cfg, cmp):
    """``times_vectors`` (``draw``: :func:`_vector`) or ``times_matrices``
    (:func:`_matrix`), checked as ``ttv`` or ``ttm`` steps, highest mode first."""
    shape = _rand_shape(rng, cfg, min_order=2)
    p = len(shape)
    (k,) = _randints(rng, 1, p, 1)
    modes = sorted(rng.sample(range(1, p + 1), k))
    a = _rand_operand(rng, shape, cfg.scalar_kind)
    bs = [draw(rng, cfg, shape[m - 1]) for m in modes]
    values, cur = read_flat(a), shape
    for m, b in sorted(zip(modes, bs), reverse=True, key=lambda x: x[0]):
        values, cur = _times(values, cur, read_flat(b), b.shape, m)
    ctx = {"op": op, "modes": modes, "a": a, "b": bs}
    return cmp.run(ctx, values, getattr(ct, op), (a, bs, modes), cur or (1,))


# -- driver -------------------------------------------------------------------------

FAMILIES: List[Tuple[str, Callable]] = [
    ("for_each", _check_for_each),
    ("transform_unary", _check_transform_unary),
    ("transform_binary", _check_transform_binary),
    ("copy", _check_copy),
    ("copy_if", _check_copy_if),
    ("fill", _check_fill),
    ("generate", partial(_check_count_up, "generate", 0, 5)),
    ("iota", partial(_check_count_up, "iota", -3, 3)),
    ("count_matching", _check_count),
    ("extremum_element", _check_extremum),
    ("find_first", _check_find),
    ("compare_ranges", _check_compare),
    ("quantify", _check_quantify),
    ("accumulate", _check_accumulate),
    ("inner_product_flat", _check_inner_flat),
    ("transpose", _check_transpose),
    ("ttv", partial(_check_mode_product, "ttv", _vector)),
    ("ttm", partial(_check_mode_product, "ttm", _matrix)),
    ("ttt", _check_ttt),
    ("outer_product", _check_outer),
    ("inner_product_tensors", _check_inner),
    ("frobenius_norm", _check_norm),
    ("times_vectors", partial(_check_chain, "times_vectors", _vector)),
    ("times_matrices", partial(_check_chain, "times_matrices", _matrix)),
]


def run_verification(cfg: RunConfig) -> VerifyReport:
    """Run every family for ``cfg.trials`` trials; see module docstring."""
    import random

    report = VerifyReport(config=cfg)
    cmp = _Comparator(cfg.scalar_kind)
    for name, check in FAMILIES:
        rng = random.Random(f"{cfg.seed}:{name}:{cfg.scalar_kind}")
        passes = 0
        failure = None
        for trial in range(cfg.trials):
            bad = check(rng, cfg, cmp)
            if bad is None:
                passes += 1
            elif failure is None:
                failure = dict(bad, trial=trial)
        report.families.append(FamilyResult(name, cfg.trials, passes, failure))
    return report
