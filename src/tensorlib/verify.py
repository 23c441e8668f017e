"""Randomized brute-force verification of the algorithm suites.

Every operation family is checked against a naive oracle that reads the
operands into plain dictionaries keyed by zero-based multi-index and
recomputes the operation with ordinary nested loops.  Trials randomize
order, extents, layout (uniform over all permutations), offsets (in
[-2, 2]), element kind, and whether each operand is a tensor or a strided
view.

The oracle shares no addressing code with the engine it checks.  It finds
every element's memory position with its own stride arithmetic: a
tensor's strides come from ``compute_strides`` of its shape and layout,
and a view's from its target's ``compute_strides`` and the view's resolved
ranges, never from the view's frame (``meta``, ``strides``, ``gamma``).
It calls neither the fiber planner (``iterators._plan``, ``plan_fibers``,
``check_reach``) nor element access (``_Strided._key_to_memory``), so a
wrong plan or a wrong view frame cannot also corrupt the expected values.

int64 trials draw small signed integers and compare exactly.  float64
trials draw positive values (``0.5 + 1.5 * random()``, the value
``uniform(0.5, 2.0)`` computes) so that reductions,
whose summation order differs between the two routes, stay free of
cancellation and the relative-error bound is meaningful.

Randomness comes from :class:`random.Random` (Mersenne Twister), which is
platform-independent and string-seedable; each family runs on its own
stream seeded with ``"{seed}:{family}:{kind}"`` so failures reproduce in
isolation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from math import sqrt
from typing import Callable, Dict, List, Optional, Tuple

from . import contraction as ct
from . import elementwise as ew
from .layout import compute_strides, zero_indices
from .tensor import DenseTensor
from .views import Range, TensorView

__all__ = ["RunConfig", "VerifyReport", "FamilyResult", "run_verification", "FAMILIES"]

FLOAT_RTOL = 1e-12


@dataclass
class RunConfig:
    """Knobs of one verification run."""

    seed: int = 42
    trials: int = 100
    max_order: int = 4
    max_extent: int = 5
    scalar_kind: str = "float64"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 1 <= self.max_order <= 6:
            raise ValueError("max_order must be in 1..6")
        if self.max_extent < 1:
            raise ValueError("max_extent must be >= 1")
        if self.scalar_kind not in ("int64", "float64"):
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
            "families": [
                {
                    "name": f.name,
                    "trials": f.trials,
                    "passes": f.passes,
                    "failure": f.failure,
                }
                for f in self.families
            ],
        }


# -- random instances -------------------------------------------------------


def _rand_shape(rng, cfg: RunConfig, min_order: int = 1) -> Tuple[int, ...]:
    p = rng.randint(min_order, cfg.max_order)
    return tuple(rng.randint(1, cfg.max_extent) for _ in range(p))


def _rand_layout(rng, p: int) -> Tuple[int, ...]:
    perm = list(range(1, p + 1))
    rng.shuffle(perm)
    return tuple(perm)


def _rand_offsets(rng, p: int) -> Tuple[int, ...]:
    return tuple(rng.randint(-2, 2) for _ in range(p))


def _rand_value(rng, kind: str):
    if kind == "int64":
        return rng.randint(-9, 9)
    return 0.5 + 1.5 * rng.random()


def _rand_tensor(rng, shape, kind: str = "int64") -> DenseTensor:
    p = len(shape)
    t = DenseTensor(shape, _rand_offsets(rng, p), _rand_layout(rng, p))
    if kind == "int64":
        randint = rng.randint
        t.data = [randint(-9, 9) for _ in range(t.size)]
    else:
        rand = rng.random
        t.data = [0.5 + 1.5 * rand() for _ in range(t.size)]
    return t


def _rand_operand(rng, shape, kind: str = "int64"):
    """A tensor of ``shape``, or a stepped view of that shape into a larger
    random parent."""
    if rng.random() < 0.5:
        return _rand_tensor(rng, shape, kind)
    p = len(shape)
    steps = [rng.randint(1, 2) for _ in range(p)]
    leads = [rng.randint(0, 1) for _ in range(p)]
    trails = [rng.randint(0, 1) for _ in range(p)]
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


# -- oracle plumbing -----------------------------------------------------------

Box = Dict[Tuple[int, ...], object]


def _box_frame(x):
    """``(data, shape, strides, gamma)`` of a tensor or view, derived here.

    A tensor's strides are ``compute_strides`` of its shape and layout and
    its base position is 0.  A view's come from its target's strides and
    its own resolved ranges: extent ``(last - first) // step + 1``, stride
    ``w * step`` and base ``sum_r w[r] * (first[r] - o[r])``.  A range
    that no longer fits the target's index box raises ``IndexError``
    naming the dimension.
    """
    if not isinstance(x, TensorView):
        return x.data, x.shape, compute_strides(x.shape, x.layout), 0
    t = x.target
    if len(x.ranges) != t.order:
        raise IndexError(
            f"view of order {len(x.ranges)} has no match for dimension "
            f"{min(len(x.ranges), t.order) + 1} of its target, "
            f"now of order {t.order}"
        )
    shape, strides, gamma = [], [], 0
    for dim, ((f, step, l), o, n, w) in enumerate(
        zip(x.ranges, t.offsets, t.shape, compute_strides(t.shape, t.layout)),
        start=1,
    ):
        if not (o <= f and l < o + n):
            raise IndexError(
                f"range [{f}:{step}:{l}] out of bounds [{o}, {o + n}) "
                f"in dimension {dim}"
            )
        shape.append((l - f) // step + 1)
        strides.append(w * step)
        gamma += w * (f - o)
    return t.data, tuple(shape), strides, gamma


def _values(data, shape, strides, gamma):
    """The elements at ``gamma + sum_r strides[r] * i[r]``, for every
    zero-based ``i`` in ``zero_indices(shape)`` order."""
    positions = [gamma]
    for w, n in zip(reversed(strides), reversed(shape)):
        steps = [w * i for i in range(n)]
        positions = [b + s for b in positions for s in steps]
    return map(data.__getitem__, positions)


def read_box(x) -> Box:
    """Materialize a tensor or view into a dict keyed by zero-based
    multi-index, reading its buffer at positions from the oracle's own
    stride arithmetic (see the module docstring)."""
    data, shape, strides, gamma = _box_frame(x)
    return dict(zip(zero_indices(shape), _values(data, shape, strides, gamma)))


def _operand_json(x) -> dict:
    if isinstance(x, TensorView):
        d = x.materialize().to_dict()
        d["view"] = True
        return d
    return x.to_dict()


def _counterexample(context: dict, **found) -> dict:
    """``context`` with its operands serialized, followed by ``found``."""
    out = {
        k: _operand_json(v) if isinstance(v, (DenseTensor, TensorView)) else v
        for k, v in context.items()
    }
    out.update(found)
    return out


class _Comparator:
    """Result comparison at one kind's tolerance (exact for int64, relative
    ``FLOAT_RTOL`` for float64).  Stateless, so one instance serves every
    trial; the operands in a context are serialized only on a failure."""

    def __init__(self, kind: str):
        self.kind = kind

    def values_close(self, expected, got) -> bool:
        if self.kind == "int64":
            return expected == got
        if expected == got:
            return True
        return abs(expected - got) <= FLOAT_RTOL * max(abs(expected), abs(got))

    def check_value(self, expected, got, context: dict) -> Optional[dict]:
        if self.values_close(expected, got):
            return None
        return _counterexample(context, expected=repr(expected), got=repr(got))

    def check_box(self, expected: Box, shape, got_reader, context: dict):
        """Compare an expected box against a result tensor or view, read
        as :func:`read_box` reads it, in ``zero_indices`` order."""
        data, got_shape, strides, gamma = _box_frame(got_reader)
        if tuple(shape) != got_shape:
            return _counterexample(
                context,
                expected_shape=list(shape),
                got_shape=list(got_shape),
            )
        got_values = _values(data, got_shape, strides, gamma)
        for i, got in zip(zero_indices(shape), got_values):
            bad = self.check_value(expected[i], got, context)
            if bad is not None:
                bad["index"] = list(i)
                return bad
        return None


# -- elementwise families ---------------------------------------------------------


def _check_for_each(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    x = _rand_operand(rng, shape, cfg.scalar_kind)
    before = read_box(x)
    alpha = _rand_value(rng, cfg.scalar_kind)
    ew.for_each(x, lambda v: v * 2 + alpha)
    expected = {i: v * 2 + alpha for i, v in before.items()}
    return cmp.check_box(expected, shape, x, {"op": "for_each"})


def _check_transform_unary(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    src = _rand_operand(rng, shape, cfg.scalar_kind)
    dst = _rand_operand(rng, shape, cfg.scalar_kind)
    alpha = _rand_value(rng, cfg.scalar_kind)
    box = read_box(src)
    ew.transform_unary(src, dst, lambda v: v * alpha)
    expected = {i: v * alpha for i, v in box.items()}
    ctx = {"op": "transform_unary", "src": src}
    return cmp.check_box(expected, shape, dst, ctx)


def _check_transform_binary(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    a = _rand_operand(rng, shape, cfg.scalar_kind)
    b = _rand_operand(rng, shape, cfg.scalar_kind)
    dst = _rand_operand(rng, shape, cfg.scalar_kind)
    ops = {"add": lambda x, y: x + y, "mul": lambda x, y: x * y}
    if cfg.scalar_kind == "int64":
        ops["sub"] = lambda x, y: x - y
    name = rng.choice(sorted(ops))
    op = ops[name]
    ba, bb = read_box(a), read_box(b)
    ew.transform_binary(a, b, dst, op)
    expected = {i: op(ba[i], bb[i]) for i in ba}
    ctx = {"op": f"transform_binary[{name}]", "a": a}
    return cmp.check_box(expected, shape, dst, ctx)


def _check_copy(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    src = _rand_operand(rng, shape, cfg.scalar_kind)
    dst = _rand_operand(rng, shape, cfg.scalar_kind)
    box = read_box(src)
    ew.copy(src, dst)
    return cmp.check_box(box, shape, dst, {"op": "copy"})


def _check_copy_if(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    src = _rand_operand(rng, shape, cfg.scalar_kind)
    dst = _rand_operand(rng, shape, cfg.scalar_kind)
    threshold = 0 if cfg.scalar_kind == "int64" else 1.0
    pred = lambda v: v > threshold
    bs, bd = read_box(src), read_box(dst)
    ew.copy_if(src, dst, pred)
    expected = {i: (bs[i] if pred(bs[i]) else bd[i]) for i in bs}
    return cmp.check_box(expected, shape, dst, {"op": "copy_if"})


def _check_fill(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    dst = _rand_operand(rng, shape, cfg.scalar_kind)
    v = _rand_value(rng, cfg.scalar_kind)
    ew.fill(dst, v)
    expected = {i: v for i in zero_indices(shape)}
    return cmp.check_box(expected, shape, dst, {"op": "fill"})


def _check_generate(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    dst = _rand_operand(rng, shape, cfg.scalar_kind)
    start = rng.randint(0, 5)
    counter = itertools.count(start)
    ew.generate(dst, lambda: next(counter))
    expected = {i: k for k, i in enumerate(zero_indices(shape), start=start)}
    return cmp.check_box(expected, shape, dst, {"op": "generate"})


def _check_iota(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    dst = _rand_operand(rng, shape, cfg.scalar_kind)
    start = rng.randint(-3, 3)
    ew.iota(dst, start)
    expected = {i: k for k, i in enumerate(zero_indices(shape), start=start)}
    return cmp.check_box(expected, shape, dst, {"op": "iota"})


def _check_count(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    x = _rand_operand(rng, shape, cfg.scalar_kind)
    box = read_box(x)
    needle = rng.choice(sorted(box.values(), key=repr))
    got = ew.count_matching(x, value=needle)
    expected = sum(1 for v in box.values() if v == needle)
    bad = cmp.check_value(expected, got, {"op": "count_matching[value]"})
    if bad is not None:
        return bad
    threshold = 0 if cfg.scalar_kind == "int64" else 1.0
    got = ew.count_matching(x, pred=lambda v: v <= threshold)
    expected = sum(1 for v in box.values() if v <= threshold)
    return cmp.check_value(expected, got, {"op": "count_matching[pred]"})


def _check_extremum(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    x = _rand_operand(rng, shape, cfg.scalar_kind)
    box = read_box(x)
    for kind, better in (("min", lambda v, b: v < b), ("max", lambda v, b: v > b)):
        best_i, best_v = None, None
        for i in zero_indices(shape):
            if best_i is None or better(box[i], best_v):
                best_i, best_v = i, box[i]
        got_i, got_v = ew.extremum_element(x, kind)
        if got_i != best_i or got_v != best_v:
            return {
                "op": f"extremum_element[{kind}]",
                "expected": [list(best_i), repr(best_v)],
                "got": [list(got_i), repr(got_v)],
            }
    return None


def _check_find(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    x = _rand_operand(rng, shape, cfg.scalar_kind)
    box = read_box(x)
    needle = rng.choice(sorted(box.values(), key=repr))
    expected = next(i for i in zero_indices(shape) if box[i] == needle)
    got = ew.find_first(x, value=needle)
    if got != expected:
        return {
            "op": "find_first[present]",
            "expected": list(expected),
            "got": None if got is None else list(got),
        }
    absent = 10**6 if cfg.scalar_kind == "int64" else -1.0
    if ew.find_first(x, value=absent) is not None:
        return {"op": "find_first[absent]", "expected": None}
    return None


def _check_compare(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    a = _rand_operand(rng, shape, cfg.scalar_kind)
    b = _rand_operand(rng, shape, cfg.scalar_kind)
    ew.copy(a, b)
    res = ew.compare_ranges(a, b)
    if not res.equal or res.first_mismatch is not None:
        return {"op": "compare_ranges[equal]", "got": str(res)}
    box = read_box(a)
    victim = rng.choice(sorted(box))
    data, _, strides, gamma = _box_frame(b)
    data[gamma + sum(w * i for w, i in zip(strides, victim))] = box[victim] + 1
    bb = read_box(b)
    expected = next(i for i in zero_indices(shape) if box[i] != bb[i])
    res = ew.compare_ranges(a, b)
    if res.equal or res.first_mismatch != expected:
        return {
            "op": "compare_ranges[mismatch]",
            "expected": list(expected),
            "got": str(res),
        }
    return None


def _check_quantify(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    x = _rand_operand(rng, shape, cfg.scalar_kind)
    box = read_box(x)
    threshold = _rand_value(rng, cfg.scalar_kind)
    pred = lambda v: v >= threshold
    hits = [v for v in box.values() if pred(v)]
    expect = {"all": len(hits) == len(box), "any": bool(hits), "none": not hits}
    for mode, exp in expect.items():
        if ew.quantify(x, pred, mode) != exp:
            return {"op": f"quantify[{mode}]", "expected": exp}
    return None


def _check_accumulate(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    x = _rand_operand(rng, shape, cfg.scalar_kind)
    box = read_box(x)
    init = _rand_value(rng, cfg.scalar_kind)
    got = ew.accumulate(x, init)
    expected = init
    for i in zero_indices(shape):
        expected = expected + box[i]
    return cmp.check_value(expected, got, {"op": "accumulate"})


def _check_inner_flat(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    a = _rand_operand(rng, shape, cfg.scalar_kind)
    b = _rand_operand(rng, shape, cfg.scalar_kind)
    ba, bb = read_box(a), read_box(b)
    init = _rand_value(rng, cfg.scalar_kind)
    got = ew.inner_product_flat(a, b, init)
    expected = init
    for i in zero_indices(shape):
        expected += ba[i] * bb[i]
    return cmp.check_value(expected, got, {"op": "inner_product_flat"})


# -- contraction oracles -----------------------------------------------------------


def oracle_transpose(box: Box, shape, tau) -> Tuple[Box, Tuple[int, ...]]:
    out_shape = tuple(shape[t - 1] for t in tau)
    out = {}
    for ic in zero_indices(out_shape):
        ia = [0] * len(shape)
        for r, t in enumerate(tau):
            ia[t - 1] = ic[r]
        out[ic] = box[tuple(ia)]
    return out, out_shape


def oracle_ttv(box: Box, shape, bvals, m: int) -> Tuple[Box, Tuple[int, ...]]:
    out_shape = shape[: m - 1] + shape[m:]
    out = {}
    for ic in zero_indices(out_shape):
        acc = 0
        for k in range(shape[m - 1]):
            acc += box[ic[: m - 1] + (k,) + ic[m - 1 :]] * bvals[k]
        out[ic] = acc
    return out, out_shape


def oracle_ttm(box: Box, shape, bbox: Box, bshape, m: int):
    out_shape = shape[: m - 1] + (bshape[0],) + shape[m:]
    out = {}
    for ic in zero_indices(out_shape):
        acc = 0
        j = ic[m - 1]
        for k in range(shape[m - 1]):
            acc += box[ic[: m - 1] + (k,) + ic[m:]] * bbox[(j, k)]
        out[ic] = acc
    return out, out_shape


def oracle_ttt(boxa: Box, na, boxb: Box, nb, q, phi, psi):
    r, s = len(na) - q, len(nb) - q
    out_shape = tuple(na[phi[k] - 1] for k in range(r)) + tuple(
        nb[psi[k] - 1] for k in range(s)
    )
    bounds = [na[phi[r + k] - 1] for k in range(q)]
    out = {}
    for ic in zero_indices(out_shape or (1,)):
        acc = 0
        for jt in itertools.product(*[range(b) for b in bounds]):
            ia = [0] * len(na)
            ib = [0] * len(nb)
            for k in range(r):
                ia[phi[k] - 1] = ic[k]
            for k in range(s):
                ib[psi[k] - 1] = ic[r + k]
            for k in range(q):
                ia[phi[r + k] - 1] = jt[k]
                ib[psi[s + k] - 1] = jt[k]
            acc += boxa[tuple(ia)] * boxb[tuple(ib)]
        out[ic] = acc
    return out, (out_shape or (1,))


# -- contraction families -------------------------------------------------------------


def _check_transpose(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    x = _rand_operand(rng, shape, cfg.scalar_kind)
    tau = list(range(1, len(shape) + 1))
    rng.shuffle(tau)
    got = ct.transpose(x, tau)
    expected, out_shape = oracle_transpose(read_box(x), shape, tau)
    ctx = {"op": "transpose", "tau": tau, "a": x}
    return cmp.check_box(expected, out_shape, got, ctx)


def _check_ttv(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg, min_order=2)
    a = _rand_operand(rng, shape, cfg.scalar_kind)
    m = rng.randint(1, len(shape))
    b = _rand_operand(rng, (shape[m - 1],), cfg.scalar_kind)
    got = ct.ttv(a, b, m)
    bvals = list(read_box(b).values())
    expected, out_shape = oracle_ttv(read_box(a), shape, bvals, m)
    ctx = {"op": "ttv", "mode": m, "a": a, "b": b}
    return cmp.check_box(expected, out_shape, got, ctx)


def _check_ttm(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg, min_order=2)
    a = _rand_operand(rng, shape, cfg.scalar_kind)
    m = rng.randint(1, len(shape))
    n_new = rng.randint(1, cfg.max_extent)
    b = _rand_operand(rng, (n_new, shape[m - 1]), cfg.scalar_kind)
    got = ct.ttm(a, b, m)
    expected, out_shape = oracle_ttm(
        read_box(a), shape, read_box(b), b.shape, m
    )
    ctx = {"op": "ttm", "mode": m, "a": a, "b": b}
    return cmp.check_box(expected, out_shape, got, ctx)


def _rand_ttt_instance(rng, cfg):
    pa = rng.randint(1, cfg.max_order)
    q = rng.randint(0, pa)
    r = pa - q
    s_min = 0 if q else 1
    s = rng.randint(s_min, max(s_min, cfg.max_order - q))
    pb = q + s
    na = tuple(rng.randint(1, cfg.max_extent) for _ in range(pa))
    phi = list(range(1, pa + 1))
    rng.shuffle(phi)
    psi = list(range(1, pb + 1))
    rng.shuffle(psi)
    nb = [0] * pb
    for k in range(s):
        nb[psi[k] - 1] = rng.randint(1, cfg.max_extent)
    for k in range(q):
        nb[psi[s + k] - 1] = na[phi[r + k] - 1]
    return na, tuple(nb), ct.ContractionSpec(q, tuple(phi), tuple(psi))


def _check_ttt(rng, cfg, cmp):
    na, nb, spec = _rand_ttt_instance(rng, cfg)
    a = _rand_operand(rng, na, cfg.scalar_kind)
    b = _rand_operand(rng, nb, cfg.scalar_kind)
    got = ct.ttt(a, b, spec)
    expected, out_shape = oracle_ttt(
        read_box(a), na, read_box(b), nb, spec.q, spec.phi, spec.psi
    )
    ctx = {
        "op": "ttt",
        "q": spec.q,
        "phi": list(spec.phi),
        "psi": list(spec.psi),
        "a": a,
        "b": b,
    }
    return cmp.check_box(expected, out_shape, got, ctx)


def _check_outer(rng, cfg, cmp):
    na = _rand_shape(rng, cfg)
    nb = _rand_shape(rng, cfg)
    if len(na) + len(nb) > 6:
        nb = nb[: 6 - len(na)] or (rng.randint(1, cfg.max_extent),)
    a = _rand_operand(rng, na, cfg.scalar_kind)
    b = _rand_operand(rng, nb, cfg.scalar_kind)
    got = ct.outer_product(a, b)
    ba, bb = read_box(a), read_box(b)
    out_shape = na + nb
    expected = {}
    for ic in zero_indices(out_shape):
        expected[ic] = ba[ic[: len(na)]] * bb[ic[len(na) :]]
    ctx = {"op": "outer_product", "a": a, "b": b}
    return cmp.check_box(expected, out_shape, got, ctx)


def _check_inner(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    a = _rand_operand(rng, shape, cfg.scalar_kind)
    b = _rand_operand(rng, shape, cfg.scalar_kind)
    got = ct.inner_product_tensors(a, b)
    ba, bb = read_box(a), read_box(b)
    expected = 0
    for i in zero_indices(shape):
        expected += ba[i] * bb[i]
    return cmp.check_value(expected, got, {"op": "inner_product_tensors"})


def _check_norm(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg)
    a = _rand_operand(rng, shape, "float64")
    got = ct.frobenius_norm(a)
    expected = sqrt(sum(v * v for v in read_box(a).values()))
    # The norm is float-valued even for integer elements.
    return _Comparator("float64").check_value(expected, got, {"op": "frobenius_norm"})


def _check_times_vectors(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg, min_order=2)
    p = len(shape)
    k = rng.randint(1, p)
    modes = sorted(rng.sample(range(1, p + 1), k))
    a = _rand_operand(rng, shape, cfg.scalar_kind)
    vecs = [
        _rand_operand(rng, (shape[m - 1],), cfg.scalar_kind) for m in modes
    ]
    got = ct.times_vectors(a, vecs, modes)
    box, cur_shape = read_box(a), shape
    for m, v in sorted(zip(modes, vecs), reverse=True, key=lambda x: x[0]):
        box, cur_shape = oracle_ttv(box, cur_shape, list(read_box(v).values()), m)
    out_shape = cur_shape or (1,)
    if not cur_shape:
        box = {(0,): box[()]}
    ctx = {"op": "times_vectors", "modes": modes}
    return cmp.check_box(box, out_shape, got, ctx)


def _check_times_matrices(rng, cfg, cmp):
    shape = _rand_shape(rng, cfg, min_order=2)
    p = len(shape)
    k = rng.randint(1, p)
    modes = sorted(rng.sample(range(1, p + 1), k))
    a = _rand_operand(rng, shape, cfg.scalar_kind)
    mats = [
        _rand_operand(
            rng, (rng.randint(1, cfg.max_extent), shape[m - 1]), cfg.scalar_kind
        )
        for m in modes
    ]
    got = ct.times_matrices(a, mats, modes)
    box, cur_shape = read_box(a), shape
    for m, bmat in sorted(zip(modes, mats), reverse=True, key=lambda x: x[0]):
        box, cur_shape = oracle_ttm(box, cur_shape, read_box(bmat), bmat.shape, m)
    ctx = {"op": "times_matrices", "modes": modes}
    return cmp.check_box(box, cur_shape, got, ctx)


# -- driver -------------------------------------------------------------------------

FAMILIES: List[Tuple[str, Callable]] = [
    ("for_each", _check_for_each),
    ("transform_unary", _check_transform_unary),
    ("transform_binary", _check_transform_binary),
    ("copy", _check_copy),
    ("copy_if", _check_copy_if),
    ("fill", _check_fill),
    ("generate", _check_generate),
    ("iota", _check_iota),
    ("count_matching", _check_count),
    ("extremum_element", _check_extremum),
    ("find_first", _check_find),
    ("compare_ranges", _check_compare),
    ("quantify", _check_quantify),
    ("accumulate", _check_accumulate),
    ("inner_product_flat", _check_inner_flat),
    ("transpose", _check_transpose),
    ("ttv", _check_ttv),
    ("ttm", _check_ttm),
    ("ttt", _check_ttt),
    ("outer_product", _check_outer),
    ("inner_product_tensors", _check_inner),
    ("frobenius_norm", _check_norm),
    ("times_vectors", _check_times_vectors),
    ("times_matrices", _check_times_matrices),
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
