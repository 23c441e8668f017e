"""The three workloads: inputs made from the seed, operations, output checks.

A workload is a fixed list of operations that the benchmark runs round
robin, one after another in one thread (a closed loop with one client).
Each operation's ``call`` is the timed library work; ``check`` runs after
the clock stops and returns the units of work the call did, or ``None``
when the output is wrong.  The library sees only the generated inputs;
NumPy computes every reference in set-up.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

import numpy as np

LAYOUTS = ("first", "last", "view")
FLOAT_RTOL = 1e-12
HOPM_TOL = 1e-10
HOPM_CHECK_RTOL = 1e-9


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[int]]
    group: str = ""  # bulk: read, write or contract
    np_call: Optional[Callable[[], Any]] = None  # NumPy reference line


# -- operands ------------------------------------------------------------------------


def _bytes(data: list) -> int:
    """Computed size of a list of Python floats: one pointer plus one float
    object per element."""
    return sys.getsizeof(data) + len(data) * sys.getsizeof(0.0)


def make_operand(lib, x: np.ndarray, layout: str, rng: np.random.Generator):
    """``x`` as a first-order or last-order tensor, or as a view stepping by
    2 through dimension 1 of a first-order parent whose other elements are
    random."""
    if layout == "first":
        return lib.tensor.DenseTensor.from_memory(
            x.shape, x.ravel(order="F").tolist(), layout=(1, 2, 3))
    if layout == "last":
        return lib.tensor.DenseTensor.from_memory(
            x.shape, x.ravel(order="C").tolist(), layout=(3, 2, 1))
    n1 = x.shape[0]
    parent = rng.uniform(0.5, 2.0, (2 * n1,) + x.shape[1:])
    parent[0::2] = x
    t = lib.tensor.DenseTensor.from_memory(
        parent.shape, parent.ravel(order="F").tolist(), layout=(1, 2, 3))
    return t.view(lib.views.Range(0, 2, 2 * n1 - 2), None, None)


def buffer_of(t) -> list:
    return t.target.data if hasattr(t, "target") else t.data


def to_numpy(t) -> np.ndarray:
    """The logical array of a tensor or view, read through its strides."""
    if hasattr(t, "target"):
        buf, base = np.asarray(t.target.data, dtype=float), t.gamma
    else:
        buf, base = np.asarray(t.data, dtype=float), 0
    return np.lib.stride_tricks.as_strided(
        buf[base:], shape=t.shape, strides=[8 * w for w in t.strides])


def _close(got, ref) -> bool:
    return bool(np.allclose(got, ref, rtol=FLOAT_RTOL, atol=0.0))


# -- oracle ---------------------------------------------------------------------------


class Oracle:
    """Every family of ``verify.FAMILIES`` for both scalar kinds at the
    default ``RunConfig``; one operation is one family trial."""

    name = "oracle"
    tail = 99
    min_cycles = 21  # 48 trials a cycle: over 1000 trials, 10 beyond p99
    probe_n = 5

    def __init__(self, lib, seed: int):
        verify = lib.verify
        self.ops: List[Op] = []
        for kind in ("float64", "int64"):
            cfg = verify.RunConfig(seed=seed, scalar_kind=kind)
            for family, check in verify.FAMILIES:
                # Same stream as `tensorlib verify --seed`, so any failing
                # trial can be replayed there.
                rng = random.Random(f"{seed}:{family}:{kind}")
                trial = partial(check, rng, cfg, verify._Comparator(kind))
                self.ops.append(Op(f"{family}.{kind}", trial, _passed))
        max_parent = (2 * cfg.max_extent + 1) ** cfg.max_order
        self.working_set_bytes = 3 * _bytes([0.0] * max_parent)

    def warm_up(self, lib, seed: int) -> None:
        for kind in ("float64", "int64"):
            cfg = lib.verify.RunConfig(seed=seed, scalar_kind=kind)
            for family, check in lib.verify.FAMILIES:
                rng = random.Random(f"warm-up:{seed}:{family}:{kind}")
                check(rng, cfg, lib.verify._Comparator(kind))


def _passed(bad) -> Optional[int]:
    return 1 if bad is None else None


# -- hopm -------------------------------------------------------------------------------

# (rank, structure index); input i uses LAYOUTS[i % 3], so each rank covers
# every layout.  The structures are the first six whose rank-one inputs
# converge in 3 sweeps and the first three whose rank-two inputs take 6, on
# each of the seeds 0-9.  With two rank-one inputs per rank-two input, p50
# then falls well inside the rank-one solves and p90 inside the rank-two
# ones, instead of on the edge between solves of different sweep counts.
HOPM_INPUTS = [(1, s) for s in (0, 1, 2, 5, 6, 7)] + [(2, s) for s in (4, 9, 14)]
HOPM_LAMBDAS = (1.0, 0.4)
HOPM_NOISE = 0.02


def numpy_hopm(x: np.ndarray, tol: float = HOPM_TOL, max_sweeps: int = 50):
    """Reference power method with tensorlib's start vectors (normalized
    all-ones) and stopping rule; returns (lambda, sweeps)."""
    u = [np.full(n, n ** -0.5) for n in x.shape]
    specs = ("ijk,j,k->i", "ijk,i,k->j", "ijk,i,j->k")
    previous = None
    for sweep in range(1, max_sweeps + 1):
        for r, spec in enumerate(specs):
            w = np.einsum(spec, x, *(u[s] for s in range(3) if s != r))
            lam = float(np.linalg.norm(w))
            u[r] = w / lam
        if previous is not None and abs(lam - previous) < tol:
            return lam, sweep
        previous = lam
    return lam, max_sweeps


def hopm_input(n: int, rank: int, structure: int, seed: int, index: int):
    """Rank-one or rank-two signal plus Gaussian noise.  The signal's
    vectors depend only on the structure index, so sweep counts barely move
    with the seed; the noise comes from the seed."""
    g = np.random.default_rng(1000 + structure)
    x = np.zeros((n, n, n))
    for lam in HOPM_LAMBDAS[:rank]:
        vecs = [v / np.linalg.norm(v) for v in (g.standard_normal(n) for _ in range(3))]
        x += lam * np.einsum("i,j,k->ijk", *vecs)
    noise = np.random.default_rng([seed, index]).standard_normal((n, n, n))
    return x + HOPM_NOISE * noise / n ** 1.5


class Hopm:
    """The calls ``tensorlib hopm --json`` makes: ``hopm(a, tol=1e-10)``
    then ``residual(a, state)``; one operation is one solve."""

    name = "hopm"
    tail = 90
    min_cycles = 12  # 9 solves a cycle: over 100 solves, 10 beyond p90
    probe_n = 32

    def __init__(self, lib, seed: int, n: int = 32, inputs=HOPM_INPUTS):
        rng = np.random.default_rng([seed, 1])
        self.sweeps: Dict[str, int] = {}
        self.ops = []
        self.working_set_bytes = 0
        for i, (rank, structure) in enumerate(inputs):
            layout = LAYOUTS[i % 3]
            x = hopm_input(n, rank, structure, seed, i)
            a = make_operand(lib, x, layout, rng)
            self.working_set_bytes += _bytes(buffer_of(a))
            lam, _ = numpy_hopm(x)
            kind = f"rank{rank}.s{structure}.{layout}"
            self.ops.append(Op(
                kind, partial(self.solve, lib, a),
                partial(self.check, kind, n, float(np.sum(x * x)), lam)))

    @staticmethod
    def solve(lib, a):
        state = lib.hopm.hopm(a, tol=HOPM_TOL)
        return state, lib.hopm.residual(a, state)

    def check(self, kind, n, norm_sq, lam_ref, out) -> Optional[int]:
        state, res = out
        lam = state.scale
        if not state.converged:
            return None
        if abs(res * res - (norm_sq - lam * lam)) > HOPM_CHECK_RTOL * norm_sq:
            return None
        if abs(lam - lam_ref) > HOPM_CHECK_RTOL * abs(lam_ref):
            return None
        self.sweeps[kind] = state.sweeps
        # times_vectors with one mode skipped: n^3 then n^2 multiply-adds.
        return state.sweeps * 3 * (n ** 3 + n ** 2)

    def warm_up(self, lib, seed: int) -> None:
        x = hopm_input(8, 1, 0, seed, len(HOPM_INPUTS))
        a = make_operand(lib, x, "first", np.random.default_rng(seed))
        self.solve(lib, a)


# -- bulk ------------------------------------------------------------------------------


@dataclass
class BulkInputs:
    a: Dict[str, Any] = field(default_factory=dict)
    b: Dict[str, Any] = field(default_factory=dict)
    out: Dict[str, Any] = field(default_factory=dict)
    equal: Dict[str, Any] = field(default_factory=dict)


CROSS = {"first": "last", "last": "first", "view": "first"}
TTM_ROWS = 8
TTT_FREE = 4


class Bulk:
    """Single kernel calls on order-3 operands of extent n, each at
    first-order layout, last-order layout and a stepped view."""

    name = "bulk"
    # p90 of 141 calls falls among the few slowest cases, whose calls are
    # far apart, and moved by 12% between seeds; p75 sits among many calls
    # of similar cost and moved by 5%.  Two cycles instead of three moved
    # p50 and p75 by 10-12%.
    tail = 75
    min_cycles = 3
    probe_n = 64

    def __init__(self, lib, seed: int, n: int = 64):
        self.lib = lib
        self.n = n
        g = np.random.default_rng([seed, 2])
        xa = g.uniform(0.5, 2.0, (n, n, n))
        xb = g.uniform(0.5, 2.0, (n, n, n))
        vec = g.uniform(0.5, 2.0, (n,))
        mat = g.uniform(0.5, 2.0, (TTM_ROWS, n))
        rhs = g.uniform(0.5, 2.0, (n, TTT_FREE))
        self.fill_value = float(g.uniform(0.5, 2.0))
        self.x = xa
        T = lib.tensor.DenseTensor
        self.vec = T.from_memory((n,), vec.tolist())
        self.mat = T.from_memory(mat.shape, mat.ravel(order="F").tolist())
        self.rhs = T.from_memory(rhs.shape, rhs.ravel(order="F").tolist())
        self.ttt_spec = lib.contraction.ContractionSpec(1, (1, 2, 3), (2, 1))
        self.inputs = ins = BulkInputs()
        for l in LAYOUTS:
            ins.a[l] = make_operand(lib, xa, l, g)
            ins.b[l] = make_operand(lib, xb, l, g)
            ins.out[l] = make_operand(lib, np.zeros_like(xa), l, g)
            ins.equal[l] = make_operand(lib, xa, CROSS[l], g)
        self.assign_dst = T((n, n, n))
        self.relayout_src = {l: (ins.a[l].meta, ins.a[l].data) for l in ("first", "last")}
        self.relayout_tensor = {l: ins.a[l].copy() for l in ("first", "last")}
        self.full_view = {l: ins.a[l].view(None, None, None) for l in ("first", "last")}
        self.ref = {
            "inner": float(np.sum(xa * xb)),
            "norm": math.sqrt(float(np.sum(xa * xa))),
            "sum": xa + xb,
            "transpose": np.transpose(xa, (2, 0, 1)),
            "ttv": [np.tensordot(xa, vec, axes=([m], [0])) for m in range(3)],
            "ttm": np.einsum("ikl,jk->ijl", xa, mat),
            "ttt": np.tensordot(xa, rhs, axes=([2], [0])),
        }
        self.np_inputs = {"first": np.asfortranarray(xa), "last": np.ascontiguousarray(xa),
                          "view": to_numpy(ins.a["view"])}
        self.np_b = np.asfortranarray(xb)
        self.np_vec, self.np_mat, self.np_rhs = vec, mat, rhs
        self.working_set_bytes = sum(
            _bytes(buffer_of(t)) for d in (ins.a, ins.b, ins.out, ins.equal)
            for t in d.values()) + 3 * _bytes(ins.a["first"].data)
        self.ops = [op for l in LAYOUTS for op in self._cases(l)]

    @staticmethod
    def _op(kind, group, layout, units, call, check, np_call):
        return Op(f"{kind}.{layout}", call,
                  lambda out: units if check(out) else None,
                  group=group, np_call=np_call)

    def _cases(self, l: str) -> List[Op]:
        lib, n, ins = self.lib, self.n, self.inputs
        ew, ct = lib.elementwise, lib.contraction
        a, b, out, eq = ins.a[l], ins.b[l], ins.out[l], ins.equal[l]
        x, ref, vol = self.x, self.ref, n ** 3
        xa, xb = self.np_inputs[l], self.np_b
        xe = np.array(xa, order="C" if CROSS[l] == "last" else "F")
        np_out = np.empty_like(xa)
        cross_np = np.empty_like(xa, order="C" if CROSS[l] == "last" else "F")
        cross = ins.out[CROSS[l]]
        fv = self.fill_value

        def equal_to(expect):
            return lambda t: _close(to_numpy(t), expect)

        read, write, contract = "read", "write", "contract"
        # Calls are lambdas, not bound methods or partials of library
        # functions, so that a traced run sees the patched names.
        ops = [
            self._op("tensors_equal", read, l, vol,
                     lambda: lib.tensor.tensors_equal(a, eq), lambda r: r is True,
                     lambda: np.array_equal(xa, xe)),
            self._op("compare_ranges", read, l, vol,
                     lambda: ew.compare_ranges(a, eq),
                     lambda r: r.equal and r.first_mismatch is None,
                     lambda: np.array_equal(xa, xe)),
            self._op("inner_product_flat", read, l, vol,
                     lambda: ew.inner_product_flat(a, b, 0.0),
                     lambda r: _close(r, ref["inner"]),
                     lambda: float(np.vdot(xa, xb))),
            self._op("frobenius_norm", read, l, vol,
                     lambda: ct.frobenius_norm(a), lambda r: _close(r, ref["norm"]),
                     lambda: float(np.linalg.norm(xa))),
            self._op("copy", write, l, vol,
                     lambda: ew.copy(a, cross), lambda _: equal_to(x)(cross),
                     lambda: np.copyto(cross_np, xa)),
            self._op("fill", write, l, vol,
                     lambda: ew.fill(out, fv),
                     lambda _: bool(np.all(to_numpy(out) == fv)),
                     lambda: np_out.fill(fv)),
            self._op("transform_binary", write, l, vol,
                     lambda: ew.transform_binary(a, b, out, _add),
                     lambda _: equal_to(ref["sum"])(out),
                     lambda: np.add(xa, xb, out=np_out)),
            self._op("assign", write, l, vol,
                     lambda: self.assign_dst.assign(a), lambda _: equal_to(x)(self.assign_dst),
                     lambda: np.copyto(np_out, xa)),
            self._op("transpose", write, l, vol,
                     lambda: ct.transpose(a, (3, 1, 2)), equal_to(ref["transpose"]),
                     lambda: np.transpose(xa, (2, 0, 1)).copy(order="F")),
        ]
        view = a if l == "view" else self.full_view[l]
        ops.append(self._op("materialize", write, l, vol,
                            lambda: view.materialize(), equal_to(x),
                            lambda: np.array(xa, order="F")))
        if l != "view":  # relayout is a DenseTensor method
            t = self.relayout_tensor[l]
            target = (3, 2, 1) if l == "first" else (1, 2, 3)
            order = "C" if l == "first" else "F"
            ops.append(self._op("relayout", write, l, vol,
                                lambda: t.relayout(target),
                                partial(self._check_relayout, l, target),
                                lambda: np.array(xa, order=order)))
        for m in (1, 2, 3):
            ops.append(self._op(f"ttv.m{m}", contract, l, vol,
                                lambda m=m: ct.ttv(a, self.vec, m),
                                equal_to(ref["ttv"][m - 1]),
                                partial(np.tensordot, xa, self.np_vec, axes=([m - 1], [0]))))
        ops.append(self._op("ttm.m2", contract, l, vol * TTM_ROWS,
                            lambda: ct.ttm(a, self.mat, 2), equal_to(ref["ttm"]),
                            lambda: np.einsum("ikl,jk->ijl", xa, self.np_mat)))
        ops.append(self._op("ttt", contract, l, vol * TTT_FREE,
                            lambda: ct.ttt(a, self.rhs, self.ttt_spec),
                            equal_to(ref["ttt"]),
                            lambda: np.tensordot(xa, self.np_rhs, axes=([2], [0]))))
        return ops

    def _check_relayout(self, l, target, _) -> bool:
        t = self.relayout_tensor[l]
        ok = t.layout == target and _close(to_numpy(t), self.x)
        # Back to the starting layout (untimed) so every call does the
        # same conversion.
        t.meta, t.data = self.relayout_src[l][0], list(self.relayout_src[l][1])
        return ok

    def warm_up(self, lib, seed: int) -> None:
        for op in Bulk(lib, seed, n=4).ops:
            op.check(op.call())


def _add(x, y):
    return x + y


WORKLOADS = {w.name: w for w in (Oracle, Hopm, Bulk)}
