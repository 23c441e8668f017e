"""Per-case A/B timer for the benchmark's ``bulk`` operations.

Usage, from anywhere::

    python3 tools/bulk_cases.py --against DIR [--n N] [--reps R] [--seed S]
                                [--only REGEX]

Builds the ``bulk`` workload (``perfbench/workloads.py``'s ``Bulk``: single
kernel calls on order-3 operands of extent ``N`` at first-order layout,
last-order layout and a stepped view) twice in one process: once from this
checkout, with its ``src/tensorlib`` and its ``perfbench/workloads.py``, and
once from the checkout ``DIR``, with its own.  The two sides' operands must
hold equal values, and ``DIR``'s buffers are then pointed at this side's
element objects: otherwise the side built first reads float objects better
placed in memory, which in an A/A run made view contractions read 0.35-0.72
against a copy of themselves.  Before any sample, each case's call count
k is fixed from one call on this side, so that a sample of k calls lasts
at least about 20 ms (k = 1 where one call already does); a case whose
first call is slower than the rest (a first ``fill`` also frees the
previous contents) gets shorter samples.  Both sides use the same k.
Every output is checked after its call's clock stops; a wrong output
ends the script with exit status 1.  Nothing under ``perfbench/`` is
changed.  ``--only`` times just the cases whose names (``copy.last``,
say) the regular expression matches, so a claim about a few cases can
take more repetitions of them in the same time.

Loading, sampling and the report are ``tools/tiny_calls.py``'s, in
milliseconds per call; a last line adds the geometric mean of the
per-case median ratios.
"""

from __future__ import annotations

import argparse
import importlib
import math
import re
import statistics
import sys
import time
from operator import ne
from pathlib import Path
from types import SimpleNamespace
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tiny_calls import load, measure, ratio, report  # noqa: E402


def library(checkout: Path, name: str) -> SimpleNamespace:
    """Every module of ``checkout/src/tensorlib``, imported as the package
    ``name``, by module name, the form ``Bulk`` takes its library in."""
    load(checkout, name)
    pkg = checkout / "src" / "tensorlib"
    return SimpleNamespace(**{
        p.stem: importlib.import_module(f"{name}.{p.stem}")
        for p in sorted(pkg.glob("*.py")) if p.stem != "__init__"
    })


def operand_buffers(bulk) -> List[list]:
    """The element buffer of every tensor and view that ``bulk`` or its
    inputs hold, alone or in a dict, each once, in attribute order."""
    buffers, seen = [], set()
    for holder in (bulk, bulk.inputs):
        for value in vars(holder).values():
            for x in value.values() if isinstance(value, dict) else (value,):
                if hasattr(x, "miter"):
                    data = x.miter().data
                    if id(data) not in seen:
                        seen.add(id(data))
                        buffers.append(data)
    return buffers


def share_elements(first, second) -> None:
    """Refill ``second``'s operand buffers, in place, with the element
    objects of ``first``'s, once their values are checked equal."""
    ours, theirs = operand_buffers(first), operand_buffers(second)
    if len(ours) != len(theirs) or any(map(ne, ours, theirs)):
        raise SystemExit("the two checkouts' bulk workloads hold different operands")
    for mine, other in zip(ours, theirs):
        other[:] = mine


def build(checkouts, n: int, seed: int) -> list:
    """The ``Bulk`` workload of each ``(checkout, name)``, the second
    sharing the first's element objects."""
    sides = []
    for checkout, name in checkouts:
        lib = library(checkout, f"tensorlib_{name}")
        module = load(checkout, f"workloads_{name}", "perfbench/workloads.py")
        sides.append(module.Bulk(lib, seed, n=n))
    share_elements(*sides)
    return sides


SAMPLE_S = 0.02  # shortest timed sample of one case, in seconds


def timed_call(op, side: str) -> float:
    """Seconds one call of ``op`` takes; its output is checked after the
    clock stops."""
    t0 = time.perf_counter()
    out = op.call()
    elapsed = time.perf_counter() - t0
    if op.check(out) is None:
        raise SystemExit(f"{op.kind}: wrong output on the {side} side")
    return elapsed


def sample_bulk(sides: List[list], reps: int):
    """Every repetition's ms per call of every case on both sides, each
    sample the mean of the case's k calls."""
    kinds = [op.kind for op in sides[0]]
    if [op.kind for op in sides[1]] != kinds:
        raise SystemExit("the two checkouts' bulk workloads list different cases")
    ops = [dict(zip(kinds, ops)) for ops in sides]
    calls = {kind: max(1, math.ceil(SAMPLE_S / timed_call(op, "this")))
             for kind, op in ops[0].items()}

    def sample(k: int, kind: str) -> float:
        side = "this" if k == 0 else "against"
        total = sum(timed_call(ops[k][kind], side) for _ in range(calls[kind]))
        return total * 1e3 / calls[kind]

    return measure(kinds, 2, reps, sample)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="checkout to compare with")
    parser.add_argument("--n", type=int, default=64, help="operand extent")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", default="", metavar="REGEX",
                        help="time only the cases whose names this matches")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.n < 1:
        parser.error("--reps and --n must be >= 1")
    try:
        only = re.compile(args.only)
    except re.error as e:
        parser.error(f"--only {args.only!r}: {e}")
    checkouts = ((HERE.parent, "this"), (args.against.resolve(), "against"))
    sides = build(checkouts, args.n, args.seed)
    ops = [[op for op in bulk.ops if only.search(op.kind)] for bulk in sides]
    if not ops[0]:
        parser.error(f"--only {args.only!r} matches no case")
    samples = sample_bulk(ops, args.reps)
    geomean = math.exp(statistics.fmean(math.log(ratio(runs)) for runs in samples.values()))
    table = report(samples, "case", "ms")
    print(table, "geometric mean" + f"{geomean:.3f}".rjust(table.index("\n") - 14), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
