"""tensorlib's benchmark: one closed-loop workload per run, outputs checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {oracle,hopm,bulk} --seed N \\
        --seconds S --trace {0,1}

The run imports tensorlib from the checkout's ``src/``, sets the workload
up several times (import, input generation, warm-up) and keeps the last
set-up, then runs the workload's operations round robin in one thread for
``S`` seconds, in whole cycles, and at least long enough to leave ten
samples beyond the reported tail percentile.  It prints a readable report,
writes the full result to ``perfbench/out/`` and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (see README.md);
their timings are in refops, iterations of a reference loop timed all
through the same run (see ``reference_ns``).
With ``--trace 1`` tracing is switched on for every other cycle, a probe
then calls each layer once more at the workload's operand size, and the
metrics are the per-layer ones, including the tracing overhead (traced
minus untraced cycles) on each end-to-end timing.  Spans go to
``perfbench/out/<workload>-seed<N>-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5

END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_ratio", "ratio"),
    ("throughput", "1/Mrefop"), ("op_p50", "refop"), ("op_tail", "refop"),
    ("unit_cost", "refop"),
)

# A fixed pure-Python loop, timed between operations all through a run.  Its
# mean time per iteration, one "refop", is how fast the interpreter ran on
# the host during the run.  On a shared host that speed switches within
# seconds between states about 1.5x apart, so raw times of whole runs drift
# by a third or more; timings in refops cancel most of that drift.
REF_DATA = [float(i % 97) for i in range(4096)]
REF_STEPS = 4 * len(range(0, 4096, 3))
REF_EVERY_NS = 20_000_000


def reference_ns() -> float:
    """ns per iteration of the reference loop."""
    data, acc = REF_DATA, 0.0
    t0 = time.perf_counter_ns()
    for _ in range(4):
        for j in range(0, 4096, 3):
            acc += data[j] * 1.5
    return (time.perf_counter_ns() - t0) / REF_STEPS


class LibraryMissing(RuntimeError):
    pass


def load_library() -> SimpleNamespace:
    """Import tensorlib afresh from ``src/`` and return its modules."""
    if not (SRC / "tensorlib" / "__init__.py").is_file():
        raise LibraryMissing(f"no tensorlib sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "tensorlib" or m.startswith("tensorlib.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tensorlib")
    if Path(pkg.__file__).resolve().parent != SRC / "tensorlib":
        raise LibraryMissing(f"tensorlib imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"tensorlib.{m}")
                              for m in tracing.MODULES})


def set_up(cls, seed: int):
    t0 = time.perf_counter()
    lib = load_library()
    workload = cls(lib, seed)
    workload.warm_up(lib, seed)
    return time.perf_counter() - t0, lib, workload


# -- the closed loop ---------------------------------------------------------------


class Loop:
    """Runs operations, times them with the clock around the call only, and
    checks each output after the clock stops."""

    def __init__(self, tracer=None, op_kind: str = ""):
        self.samples = []  # (kind, ns, units or None, traced)
        self.reference = []  # reference_ns() samples
        self.last_reference = 0
        self.failures = []
        self.tracer = tracer
        self.op_kind = op_kind

    def run(self, ops, traced: bool = False) -> None:
        clock = time.perf_counter_ns
        tracer = self.tracer if traced else None
        for op_id, op in enumerate(ops):
            if clock() - self.last_reference > REF_EVERY_NS:
                self.reference.append(reference_ns())
                self.last_reference = clock()
            error = None
            if tracer is not None:
                tracer.begin_op(self.op_kind, op_id)
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation, counted below
                error = exc
            t1 = clock()
            if tracer is not None:
                tracer.end_op()
            units = None
            if error is None:
                try:
                    units = op.check(out)
                except Exception as exc:
                    error = exc
            if units is None and len(self.failures) < 20:
                self.failures.append({"kind": op.kind, "error": repr(error)
                                      if error else "wrong output"})
            self.samples.append((op.kind, t1 - t0, units, traced))

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s[2] is None)


def measure(workload, seconds: float, loop: Loop, patches=None) -> int:
    """Whole cycles until ``seconds`` have passed and the workload's minimum
    is met; with ``patches``, every other cycle is traced."""
    min_cycles = 2 if patches is not None else workload.min_cycles
    start = time.perf_counter()
    cycles = 0
    while cycles < min_cycles or time.perf_counter() - start < seconds:
        traced = patches is not None and cycles % 2 == 1
        if traced:
            patches.on()
        try:
            loop.run(workload.ops, traced)
        finally:
            if traced:
                patches.off()
        cycles += 1
    return cycles


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ns_per_unit_by_kind(samples) -> dict:
    by_kind = defaultdict(list)
    for kind, ns, units, _ in samples:
        if units:
            by_kind[kind].append(ns / units)
    return by_kind


def per_kind(samples) -> dict:
    """Mean ns per unit of work of each kind of operation.  A mean, not a
    median: the host's speed switches between two states, and a median of
    few samples jumps between them where a mean moves smoothly."""
    ns, units = defaultdict(int), defaultdict(int)
    for kind, t, u, _ in samples:
        if u:
            ns[kind] += t
            units[kind] += u
    return {k: ns[k] / units[k] for k in ns}


def timing_metrics(samples, tail: int, refop_ns: float) -> dict:
    """Operations per million refops and costs in refops of the successful
    operations; with ``refop_ns=1`` the costs are in ns."""
    ok = [s for s in samples if s[2] is not None]
    cost = [s[1] / refop_ns for s in ok]
    return {
        "throughput": len(cost) / sum(cost) * 1e6,
        "op_p50": statistics.median(cost),
        "op_tail": statistics.quantiles(cost, n=100)[tail - 1],
        "unit_cost": geomean(per_kind(ok).values()) / refop_ns,
    }


# -- per-workload reports ------------------------------------------------------------


def named_figures(workload, e2e: dict, raw: dict, costs: dict) -> dict:
    """The figures in time units, under the workload-specific names that
    the readable report uses; ``raw`` is ``timing_metrics`` in ns."""
    names = {"setup_s": (e2e["setup_s"], "s"),
             "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
             "fail_ratio": (1.0 - e2e["pass_ratio"], "ratio")}
    if workload.name == "oracle":
        names.update(oracle_trials_per_s=(raw["throughput"] * 1e3, "1/s"),
                     oracle_trial_p50_us=(raw["op_p50"] / 1e3, "us"),
                     oracle_trial_p99_us=(raw["op_tail"] / 1e3, "us"))
    elif workload.name == "hopm":
        names.update(hopm_solve_p50_ms=(raw["op_p50"] / 1e6, "ms"),
                     hopm_solve_p90_ms=(raw["op_tail"] / 1e6, "ms"),
                     hopm_sweeps=(sum(workload.sweeps.values()), "count"))
    else:
        for group, unit in (("read", "elem"), ("write", "elem"), ("contract", "madd")):
            kinds = [op.kind for op in workload.ops if op.group == group]
            names[f"bulk_{group}_ns_per_{unit}"] = (
                geomean(costs[k] for k in kinds), "ns")
    return names


def numpy_reference(workload, samples, repeats: int = 5) -> dict:
    """NumPy's median ns per unit for each operation that has one."""
    units = {kind: u for kind, _, u, _ in samples if u}
    out = {}
    for op in workload.ops:
        if op.np_call is None or op.kind not in units:
            continue
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            op.np_call()
            times.append(time.perf_counter_ns() - t0)
        out[op.kind] = statistics.median(times) / units[op.kind]
    return out


def cache_sizes() -> dict:
    """L2 and L3 sizes in bytes from read-only sysfs; absent entries are
    left out."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                text = (index / "size").read_text().strip()
                mult = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
                sizes[f"l{level}_bytes"] = int(text.rstrip("KM")) * mult
    except OSError:
        pass
    return sizes


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def provenance(workload, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tensorlib").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "nproc": os.cpu_count(),
        **cache_sizes(),
        "working_set_bytes": workload.working_set_bytes,
    }


# -- traced run ----------------------------------------------------------------------------


def probe(lib, workload, seed: int, tracer, patches, loop: Loop) -> int:
    """Traced calls that give every per-layer metric a value: the iterator
    walk at each layout, and any bulk case, solve or verify trial that the
    workload itself did not run, all at the workload's operand size.
    Returns the sweeps of the probe's solve (0 when there was none)."""
    n = workload.probe_n
    rng = np.random.default_rng([seed, 3])
    walks = [wl.make_operand(lib, rng.uniform(0.5, 2.0, (n, n, n)), l, rng)
             for l in wl.LAYOUTS]
    walk_keys = {f"iterators.walk_positions.{l}" for l in wl.LAYOUTS}
    extra = []
    if set(tracing.missing_keys(tracer)) - walk_keys:
        extra.append(("probe", wl.Bulk(lib, seed, n=n).ops))
    solver = None
    if not tracer.calls["hopm.hopm"]:
        solver = wl.Hopm(lib, seed, n=min(n, 32), inputs=wl.HOPM_INPUTS[:1])
        extra.append(("probe", solver.ops))
    if not tracer.oracle_trial_ns:
        extra.append((tracing.ORACLE_TRIAL, wl.Oracle(lib, seed).ops))
    patches.on()
    try:
        for t in walks:
            lib.iterators.walk_positions(t.miter())
        for kind, ops in extra:
            loop.op_kind = kind
            loop.run(ops, traced=True)
    finally:
        patches.off()
    return sum(solver.sweeps.values()) if solver else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cls = wl.WORKLOADS[args.workload]
    try:
        setups = []
        for _ in range(SETUPS):
            lib = workload = None  # free the previous set-up first
            gc.collect()
            elapsed, lib, workload = set_up(cls, args.seed)
            setups.append(elapsed)
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    traced = args.trace == 1
    tracer = patches = None
    kind = tracing.ORACLE_TRIAL if cls is wl.Oracle else cls.name
    if traced:
        tracer = tracing.Tracer()
        patches = tracing.instrument(tracer)
    loop = Loop(tracer, kind)
    cycles = measure(workload, args.seconds, loop, patches)
    untraced = [s for s in loop.samples if not s[3]]
    refop_ns = statistics.fmean(loop.reference)
    e2e = timing_metrics(untraced, cls.tail, refop_ns)
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e["pass_ratio"] = 1.0 - loop.failed / loop.attempted
    costs = per_kind(untraced)
    np_ref = numpy_reference(workload, untraced)
    names = named_figures(workload, e2e, timing_metrics(untraced, cls.tail, 1.0), costs)

    if traced:
        overhead_of = timing_metrics([s for s in loop.samples if s[3]], cls.tail, refop_ns)
        probe_sweeps = probe(lib, workload, args.seed, tracer, patches, loop)
        sweeps = sum(getattr(workload, "sweeps", {}).values()) or probe_sweeps
        metrics = tracing.per_layer_metrics(
            tracer, sweeps, {k: overhead_of[k] - e2e[k] for k in overhead_of})
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{cls.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": cls.name, "seconds": args.seconds, "cycles": cycles,
        "provenance": provenance(workload, args.seed),
        "setup_s_each": setups,
        "refop_ns": refop_ns, "reference_samples": len(loop.reference),
        "end_to_end": {k: e2e[k] for k, _ in END_TO_END},
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in names.items()},
        "kinds": {k: {"mean_ns_per_unit": costs[k], "ns_per_unit": v,
                      "numpy_ns_per_unit": np_ref.get(k)}
                  for k, v in sorted(ns_per_unit_by_kind(untraced).items())},
        "failures": loop.failures,
        "result": result,
    }
    if traced:
        tracer.write_spans(OUT / f"{cls.name}-seed{args.seed}-spans.jsonl")
        record["trace"] = {
            "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
            "calls": dict(tracer.calls), "total_ns": dict(tracer.total_ns),
            "self_ns": dict(tracer.self_ns),
            "per_unit_ns": {k: tracer.unit_ns[k] / tracer.units[k] for k in tracer.units},
        }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {cls.name} seed={args.seed} trace={args.trace}: "
          f"{loop.attempted} operations in {cycles} cycles, {loop.failed} failed")
    print("provenance " + json.dumps(record["provenance"]))
    print(f"  {'refop':<28} {refop_ns:14.6g} ns")
    for k, (v, u) in names.items():
        print(f"  {k:<28} {v:14.6g} {u}")
    if np_ref:
        print(f"  {'case':<28} {'ns/unit':>14} {'numpy ns/unit':>14}")
        for k, v in sorted(costs.items()):
            print(f"  {k:<28} {v:14.4g} {np_ref[k]:14.4g}")
    for f in loop.failures:
        print(f"  failed: {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
