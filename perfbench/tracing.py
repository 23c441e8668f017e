"""Traced runs: wrappers around tensorlib's public functions, kept in memory.

Every public function of the measured modules is replaced, in every module
namespace that holds it (modules import each other's functions by value),
by a wrapper that records one span: name, start, end, parent span and
operation id.  A handful of methods (element access, relayout, assign,
materialize) and the constructors of the addressing and iterator types are
wrapped on their classes.  Self time is computed online from a stack, so
the per-layer figures stay exact when the stored span list hits its cap.

The wrappers live in the benchmark, not in the library: tracing is switched
on by patching attributes and off by restoring them, so an untraced run
executes the library's own code only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter
from typing import Callable, Dict, List, Tuple

MODULES = (
    "layout", "iterators", "tensor", "views",
    "elementwise", "contraction", "hopm", "verify",
)
KERNEL_MODULES = frozenset({"elementwise", "contraction"})
ORACLE_TRIAL = "oracle_trial"
LAYOUTS = ("first", "last", "view")

# (module, class, attribute, span name)
METHODS = (
    ("layout", "TensorMeta", "__init__", "layout.TensorMeta"),
    ("iterators", "MultiIterator", "__init__", "iterators.MultiIterator"),
    ("tensor", "DenseTensor", "__init__", "tensor.DenseTensor"),
    ("tensor", "DenseTensor", "__getitem__", "tensor.getitem"),
    ("tensor", "DenseTensor", "__setitem__", "tensor.setitem"),
    ("tensor", "DenseTensor", "relayout", "tensor.relayout"),
    ("tensor", "DenseTensor", "assign", "tensor.assign"),
    ("tensor", "DenseTensor", "reshape", "tensor.reshape"),
    ("views", "TensorView", "__init__", "views.TensorView"),
    ("views", "TensorView", "__getitem__", "views.getitem"),
    ("views", "TensorView", "__setitem__", "views.setitem"),
    ("views", "TensorView", "materialize", "views.materialize"),
)

SPAN_CAP = 100_000


# -- operand classification ---------------------------------------------------


def extents(x) -> Tuple[int, ...]:
    ext = getattr(x, "extents", None)  # MultiIterator
    return tuple(ext if ext is not None else x.shape)


def size(x) -> int:
    s = 1
    for n in extents(x):
        s *= n
    return s


def _dense_strides(shape, order) -> Tuple[int, ...]:
    w = [0] * len(shape)
    running = 1
    for r in order:
        w[r] = running
        running *= shape[r]
    return tuple(w)


def layout_class(x) -> str:
    """'first' or 'last' for operands whose strides are those of the
    first- or last-order layout, 'other' for any other dense permutation,
    'view' for strides no dense layout has."""
    shape, strides = extents(x), tuple(x.strides)
    p = len(shape)
    if strides == _dense_strides(shape, range(p)):
        return "first"
    if strides == _dense_strides(shape, range(p - 1, -1, -1)):
        return "last"
    running = 1
    for w, n in sorted(zip(strides, shape)):
        if n > 1 and w != running:
            return "view"
        running *= n
    return "other"


def _ew(op):
    return lambda x, *args, **kwargs: (
        f"elementwise.{op}.{layout_class(x)}", size(x))


def _ttm(a, bmat, mode):
    return f"contraction.ttm.{layout_class(a)}", size(a) * extents(bmat)[0]


def _ttt(a, b, spec):
    ea = extents(a)
    bound = 1
    for d in spec.phi[len(spec.phi) - spec.q:]:
        bound *= ea[d - 1]
    return f"contraction.ttt.{layout_class(a)}", size(a) * size(b) // bound


# Span name -> classify(*args, **kwargs) -> (per-unit key, units of work).
CLASSIFY: Dict[str, Callable] = {
    "iterators.walk_positions": lambda it: (
        f"iterators.walk_positions.{layout_class(it)}", size(it)),
    **{f"elementwise.{op}": _ew(op) for op in (
        "compare_ranges", "inner_product_flat", "copy", "fill",
        "transform_binary")},
    "contraction.ttv": lambda a, b, mode: (
        f"contraction.ttv.m{mode}.{layout_class(a)}", size(a)),
    "contraction.ttm": _ttm,
    "contraction.ttt": _ttt,
    "contraction.transpose": lambda a, tau: (
        f"contraction.transpose.{layout_class(a)}", size(a)),
    "tensor.tensors_equal": lambda a, b: ("tensor.tensors_equal", size(a)),
    "tensor.relayout": lambda self, layout: ("tensor.relayout", size(self)),
    "tensor.assign": lambda self, src: ("tensor.assign", size(src)),
    "views.materialize": lambda self: ("views.materialize", size(self)),
}


# -- tracer ---------------------------------------------------------------------


class Tracer:
    """Spans and per-name aggregates of one traced run.

    A stack frame is ``[span id, start ns, child ns, is kernel]``; the
    bottom frame stands for "outside any operation".
    """

    def __init__(self):
        self.stack: List[list] = [[0, 0, 0, False]]
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.errors: Counter = Counter()
        self.unit_ns: Counter = Counter()
        self.units: Counter = Counter()
        self.kernel_ns = 0
        self.oracle_trial_ns = 0
        self.spans: List[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = None
        self.op_kind = None

    def _record(self, sid, name, t0, t1, parent_id):
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, t0, t1, parent_id, self.op_id))
        else:
            self.dropped += 1

    def begin_op(self, kind: str, op_id: int) -> None:
        self.next_id += 1
        self.op_kind, self.op_id = kind, op_id
        self.stack.append([self.next_id, time.perf_counter_ns(), 0, False])

    def end_op(self) -> None:
        t1 = time.perf_counter_ns()
        sid, t0, _, _ = self.stack.pop()
        self._record(sid, f"op.{self.op_kind}", t0, t1, 0)
        if self.op_kind == ORACLE_TRIAL:
            self.oracle_trial_ns += t1 - t0
        self.op_kind = self.op_id = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        module = name.split(".", 1)[0]
        is_kernel = module in KERNEL_MODULES
        classify = CLASSIFY.get(name)
        clock = time.perf_counter_ns
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = classify(*args, **kwargs) if classify is not None else None
            parent = stack[-1]
            tracer.next_id += 1
            frame = [tracer.next_id, clock(), 0, is_kernel]
            stack.append(frame)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                t0 = frame[1]
                dur = t1 - t0
                parent[2] += dur
                tracer.calls[name] += 1
                tracer.total_ns[name] += dur
                tracer.self_ns[name] += dur - frame[2]
                if not ok:
                    tracer.errors[module] += 1
                if key is not None:
                    tracer.unit_ns[key[0]] += dur
                    tracer.units[key[0]] += key[1]
                if (is_kernel and not parent[3]
                        and tracer.op_kind == ORACLE_TRIAL):
                    tracer.kernel_ns += dur
                tracer._record(frame[0], name, t0, t1, parent[0])

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for sid, name, t0, t1, parent, op in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                    "end_ns": t1, "parent": parent,
                                    "op": op}) + "\n")


class Patches:
    """Attribute replacements that switch tracing on and off."""

    def __init__(self, items: List[tuple]):
        self.items = items  # (owner, attribute, original, wrapper)

    def on(self) -> None:
        for owner, attr, _, wrapper in self.items:
            setattr(owner, attr, wrapper)

    def off(self) -> None:
        for owner, attr, original, _ in self.items:
            setattr(owner, attr, original)


def instrument(tracer: Tracer) -> Patches:
    """Wrappers for every public function of :data:`MODULES` in every
    loaded tensorlib namespace that binds it, plus :data:`METHODS`.

    Modules are looked up with ``importlib`` because the package rebinds
    some submodule names (``tensorlib.hopm`` is the function).
    """
    mods = {m: importlib.import_module(f"tensorlib.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                wrapped[fn] = tracer.wrap(f"{short}.{attr}", fn)
    items = []
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "tensorlib" or n.startswith("tensorlib.")]
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if isinstance(value, types.FunctionType) and value in wrapped:
                items.append((ns, attr, value, wrapped[value]))
    for short, cls_name, attr, name in METHODS:
        cls = getattr(mods[short], cls_name)
        original = cls.__dict__[attr]
        items.append((cls, attr, original, tracer.wrap(name, original)))
    return Patches(items)


# -- per-layer metrics -------------------------------------------------------------

ORACLE_EW = (
    "for_each", "transform_unary", "transform_binary", "copy", "copy_if",
    "fill", "generate", "iota", "count_matching", "extremum_element",
    "find_first", "compare_ranges", "quantify", "accumulate",
    "inner_product_flat",
)
BULK_EW = ("compare_ranges", "inner_product_flat", "copy", "fill",
           "transform_binary")

COUNTED = (
    "layout.memory_index", "layout.TensorMeta", "layout.inverse_memory_index",
    "iterators.MultiIterator", "tensor.getitem", "views.getitem",
    "views.materialize",
)
SELF_TIMED = (
    ("tensor.getitem", "views.getitem")
    + tuple(f"elementwise.{op}" for op in ORACLE_EW)
    + ("contraction.times_vectors", "contraction.frobenius_norm",
       "hopm.rank_one_compose", "hopm.residual", "hopm.hopm")
)
PER_UNIT = (
    [(f"iterators.walk_positions.{l}", "elem") for l in LAYOUTS]
    + [(f"tensor.{op}", "elem") for op in ("relayout", "assign", "tensors_equal")]
    + [("views.materialize", "elem")]
    + [(f"elementwise.{op}.{l}", "elem") for op in BULK_EW for l in LAYOUTS]
    + [(f"contraction.ttv.m{m}.{l}", "madd") for m in (1, 2, 3) for l in LAYOUTS]
    + [(f"contraction.{op}.{l}", "madd") for op in ("ttm", "ttt") for l in LAYOUTS]
    + [(f"contraction.transpose.{l}", "elem") for l in LAYOUTS]
)
OVERHEAD = (("throughput", "1/Mrefop"), ("op_p50", "refop"), ("op_tail", "refop"),
            ("unit_cost", "refop"))


def per_layer_spec() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    spec = [(f"{n}.calls", "count") for n in COUNTED]
    spec += [(f"{n}.self_s", "s") for n in SELF_TIMED]
    spec += [(f"{k}.ns_per_{u}", "ns") for k, u in PER_UNIT]
    spec += [("verify.kernel_s", "s"), ("verify.oracle_self_s", "s"),
             ("hopm.sweeps", "count")]
    spec += [(f"{m}.errors", "count") for m in MODULES]
    spec += [(f"trace_overhead.{m}", u) for m, u in OVERHEAD]
    return spec


def per_layer_metrics(tracer: Tracer, sweeps: int,
                      overhead: Dict[str, float]) -> Dict[str, dict]:
    values = {}
    for n in COUNTED:
        values[f"{n}.calls"] = tracer.calls[n]
    for n in SELF_TIMED:
        values[f"{n}.self_s"] = tracer.self_ns[n] / 1e9
    for key, unit in PER_UNIT:
        if not tracer.units[key]:
            raise RuntimeError(f"traced run recorded no call for {key}")
        values[f"{key}.ns_per_{unit}"] = tracer.unit_ns[key] / tracer.units[key]
    values["verify.kernel_s"] = tracer.kernel_ns / 1e9
    values["verify.oracle_self_s"] = (tracer.oracle_trial_ns - tracer.kernel_ns) / 1e9
    values["hopm.sweeps"] = sweeps
    for m in MODULES:
        values[f"{m}.errors"] = tracer.errors[m]
    for m, _ in OVERHEAD:
        values[f"trace_overhead.{m}"] = overhead[m]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_spec()}


def missing_keys(tracer: Tracer) -> List[str]:
    """Per-unit keys the run has not measured yet."""
    return [k for k, _ in PER_UNIT if not tracer.units[k]]
