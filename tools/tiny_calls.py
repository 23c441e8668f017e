"""Per-call timer for the small calls that dominate ``tensorlib verify``,
and the A/B harness both in-process timers share.

Usage, from anywhere::

    python3 tools/tiny_calls.py [--against DIR] [--reps R] [--number N]

Times the calls the randomized oracle makes most, each on (3, 4, 2)
operands: constructing a ``DenseTensor``, deriving last-order strides
with ``compute_strides``, constructing a ``TensorView``, reading one
element with ``t[1, 2, 0]``, the ``size`` of a tensor and of a stepped
view, constructing a stepped ``Range``,
materializing a stepped view, a tensor's ``relayout`` and ``reshape``
(each there and back), planning two cursors with ``plan_fibers``,
``walk_positions`` on a raw cursor, the range algorithms ``fill_range``
and ``inner_product_range`` on stride-3 ranges of 3 elements and stride-2
ranges of 1024 (the 1024-element inner product runs backward to index 0
against a forward unit-stride range), the elementwise ``copy`` (between
tensors, and from the stepped view), ``fill``, ``transform_binary`` and
``compare_ranges``, constructing a ``ContractionSpec``, and the
contractions ``ttv``, ``ttm``, ``ttt``, ``ttt_pairs`` (a q = 2 ttt with a
(3, 2, 2) operand whose contracted pairs merge into no single fiber on
either side), ``outer_product``, a ``times_vectors`` and a
``times_matrices`` over all three modes and ``transpose``.  The oracle's
own read of a last-order tensor, ``read_flat``, follows, and three rows
time the oracle's own work at the size of its slowest trials:
``randints_625`` draws 625 elements in [-9, 9] with ``verify._randints``,
``contract_outer`` is the label oracle's (5, 5, 5) x (5, 5) outer
product, and ``times_matrices_mid`` applies four 5 x 5 matrices to a
stepped 5^4 view.  Each figure is the minimum, over ``R`` repetitions, of
the mean time of ``N`` back-to-back calls, in microseconds per call.

The library timed is this checkout's ``src/tensorlib``.  With
``--against DIR`` the ``src/tensorlib`` of a second checkout is loaded
into the same process under another package name, and every repetition
times each call on both libraries in turn, so a drift in host speed
touches both columns alike.  The report then adds the ratio
``this / against`` per call: the median, over repetitions, of the ratio
of the two back-to-back timings, which a burst of host speed on one side
moves less than it moves either minimum.

:func:`load`, :func:`measure` and :func:`report` are that policy, and
``tools/bulk_cases.py`` times the benchmark's ``bulk`` cases through them.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import random
import statistics
import sys
import time
from operator import add, truediv
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, Iterable, List

HERE = Path(__file__).resolve().parent.parent

def load(checkout: Path, name: str, path: str = "src/tensorlib") -> ModuleType:
    """Import ``checkout/path``, a package directory or one ``.py`` file,
    as the module ``name``."""
    target = checkout / path
    if not target.exists():
        raise SystemExit(f"no {path} under {checkout}")
    package = target.is_dir()
    spec = importlib.util.spec_from_file_location(
        name, target / "__init__.py" if package else target,
        submodule_search_locations=[str(target)] if package else None,
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(tl: ModuleType) -> Dict[str, Callable[[], object]]:
    """One zero-argument callable per call timed, in report order, with its
    operands built beforehand by the library ``tl``."""
    from_memory = tl.DenseTensor.from_memory
    a = from_memory((3, 4, 2), [0.5 + k / 7 for k in range(24)])
    b = from_memory((3, 4, 2), [1.5 - k / 9 for k in range(24)], layout=(3, 2, 1))
    parent = tl.DenseTensor((5, 8, 3), offsets=(-1, 0, 1), layout=(2, 3, 1))
    ranges = (tl.Range(0, 1, 2), tl.Range(0, 2, 6), tl.Range(1, 1, 2))
    view = tl.TensorView(parent, ranges)
    vec = from_memory((4,), [0.25, 1.0, 1.75, 2.5])
    vectors = [from_memory((3,), [0.5, -1.0, 2.0]), vec, from_memory((2,), [3.0, 0.75])]
    c = tl.DenseTensor((3, 4, 2))
    mat = from_memory((5, 4), [k / 3 for k in range(20)], layout=(2, 1))
    matrices = [from_memory((2, 3), [k / 4 for k in range(6)]), mat,
                from_memory((3, 2), [1.0 - k / 6 for k in range(6)], layout=(2, 1))]
    other = from_memory((4, 3), [k / 5 for k in range(12)])
    spec = tl.ContractionSpec(1, (1, 3, 2), (2, 1))
    pairs = from_memory((3, 2, 2), [1 - k / 8 for k in range(12)])
    spec_pairs = tl.ContractionSpec(2, (2, 1, 3), (3, 1, 2))
    cursors = (a.miter(), b.miter())
    iterators = sys.modules[tl.__name__ + ".iterators"]
    plan_fibers, fill_range = iterators.plan_fibers, iterators.fill_range
    inner_product_range, stride = iterators.inner_product_range, tl.StrideIterator
    short, long = [k / 3 for k in range(9)], [k / 7 for k in range(2048)]
    filled_short, filled_long = [0.0] * 9, [0.0] * 2048
    short_fill = (stride(filled_short, 0, 3), stride(filled_short, 9, 3))
    long_fill = (stride(filled_long, 0, 2), stride(filled_long, 2048, 2))
    short_dot = (stride(short, 0, 3), stride(short, 9, 3), stride(a.data, 0, 1))
    long_dot = (stride(long, 2046, -2), stride(long, -2, -2), stride(long, 1, 1))
    moved = from_memory((3, 4, 2), [k / 3 for k in range(24)])
    verify = sys.modules[tl.__name__ + ".verify"]
    rng = random.Random(7)
    cube = ([k / 11 for k in range(125)], (5, 5, 5), (0, 1, 2))
    square = ([1 - k / 13 for k in range(25)], (5, 5), (3, 4))
    parent4 = tl.DenseTensor((9, 5, 6, 5), offsets=(1, 0, -1, 2), layout=(3, 1, 4, 2))
    parent4.data = [k / 17 for k in range(parent4.size)]
    ranges4 = (tl.Range(1, 2, 9), None, tl.Range(0, 1, 4), None)
    view4 = tl.TensorView(parent4, ranges4)
    squares = [from_memory((5, 5), [(k + j) / 7 for k in range(25)]) for j in range(4)]
    return {
        "DenseTensor": lambda: tl.DenseTensor((3, 4, 2)),
        "compute_strides": lambda: tl.compute_strides((3, 4, 2), (3, 2, 1)),
        "TensorView": lambda: tl.TensorView(parent, ranges),
        "getitem": lambda: a[1, 2, 0],
        "size": lambda: a.size,
        "view_size": lambda: view.size,
        "Range": lambda: tl.Range(0, 2, 6),
        "materialize": view.materialize,
        "relayout": lambda: (moved.relayout((3, 1, 2)), moved.relayout((1, 2, 3))),
        "reshape": lambda: (moved.reshape((6, 4)), moved.reshape((3, 4, 2))),
        "plan_fibers": lambda: plan_fibers(cursors),
        "walk_positions": lambda: tl.walk_positions(cursors[1]),
        "fill_range_3": lambda: fill_range(*short_fill, 0.5),
        "fill_range_1024": lambda: fill_range(*long_fill, 0.5),
        "inner_range_3": lambda: inner_product_range(*short_dot, 0.0),
        "inner_range_1024": lambda: inner_product_range(*long_dot, 0.0),
        "copy": lambda: tl.copy(a, b),
        "copy_view": lambda: tl.copy(view, c),
        "fill": lambda: tl.fill(b, 1.0),
        "transform_binary": lambda: tl.transform_binary(a, b, c, add),
        "compare_ranges": lambda: tl.compare_ranges(a, b),
        "ContractionSpec": lambda: tl.ContractionSpec(1, (1, 3, 2), (2, 1)),
        "ttv": lambda: tl.ttv(a, vec, 2),
        "ttm": lambda: tl.ttm(a, mat, 2),
        "ttt": lambda: tl.ttt(a, other, spec),
        "ttt_pairs": lambda: tl.ttt(a, pairs, spec_pairs),
        "outer_product": lambda: tl.outer_product(a, vec),
        "times_vectors": lambda: tl.times_vectors(a, vectors, modes=(1, 2, 3)),
        "times_matrices": lambda: tl.times_matrices(a, matrices, modes=(1, 2, 3)),
        "transpose": lambda: tl.transpose(a, (3, 1, 2)),
        "read_flat": lambda: verify.read_flat(b),
        "randints_625": lambda: verify._randints(rng, -9, 9, 625),
        "contract_outer": lambda: verify.contract(range(5), (), cube, square),
        "times_matrices_mid": lambda: tl.times_matrices(view4, squares, (1, 2, 3, 4)),
    }


def measure(names: Iterable[str], sides: int, reps: int,
            sample: Callable[[int, str], float]) -> Dict[str, List[list]]:
    """Every repetition's ``sample(k, name)`` of every case ``name`` on
    every side ``k`` in ``range(sides)``, the sides sampled in turn within
    each repetition."""
    samples: Dict[str, List[list]] = {name: [[] for _ in range(sides)] for name in names}
    # As in timeit: a collection would land on whichever call is running.
    gc.collect()
    gc.disable()
    try:
        for rep in range(reps):
            # Alternate which side goes first, so neither side keeps the
            # slot right after the other's calls.
            order = range(sides)[:: -1 if rep % 2 else 1]
            for name, runs in samples.items():
                for k in order:
                    runs[k].append(sample(k, name))
    finally:
        gc.enable()
    return samples


def ratio(runs: List[list]) -> float:
    """The median over repetitions of two sides' back-to-back ratios."""
    return statistics.median(map(truediv, *runs))


def report(samples: Dict[str, List[list]], title: str, unit: str) -> str:
    """One row per case: each side's minimum, in ``unit`` per call, and
    with two sides their :func:`ratio`."""
    width = max(map(len, (title, *samples))) + 2
    rows = {name: [min(t) for t in runs] + ([ratio(runs)] if len(runs) == 2 else [])
            for name, runs in samples.items()}
    heads = ("this_" + unit, "against_" + unit, "ratio")[: len(next(iter(rows.values())))]
    lines = [title.ljust(width) + "".join(h.rjust(12) for h in heads)]
    lines += [name.ljust(width) + "".join(f"{x:12.3f}" for x in row) for name, row in rows.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="checkout to compare with")
    parser.add_argument("--reps", type=int, default=60)
    parser.add_argument("--number", type=int, default=100)
    args = parser.parse_args(argv)
    if args.reps < 1 or args.number < 1:
        parser.error("--reps and --number must be >= 1")
    libs = [load(HERE, "tensorlib")]
    if args.against is not None:
        libs.append(load(args.against.resolve(), "tensorlib_against"))
    suites = [cases(tl) for tl in libs]

    def sample(k: int, name: str) -> float:
        """µs per call, the mean of ``--number`` back-to-back calls."""
        fn, clock = suites[k][name], time.perf_counter
        t0 = clock()
        for _ in range(args.number):
            fn()
        return (clock() - t0) / args.number * 1e6

    print(report(measure(suites[0], len(suites), args.reps, sample), "call", "us"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
