"""Command-line harness: randomized verification, MATLAB emission,
rank-one approximation, and worked demos.

Exit codes: 0 success; 1 verification/processing failure, a malformed
tensor file or an unwritable ``--out``; 2 power method hit the sweep limit
without converging; 3 degenerate input (a mode norm zero or not finite, as
from NaN or infinite data); 64 usage error, an option value out of range
included, as is an ``emit --name`` that is no MATLAB identifier.
``TENSORLIB_SEED`` provides the seed when ``--seed`` is absent.
Identical seed and options produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

from .contraction import ttt, ttv, ContractionSpec
from .hopm import DegenerateInputError, hopm, residual
from .iterators import StrideIterator
from .matlab_io import MatlabScript
from .tensor import DenseTensor
from .verify import RunConfig, run_verification
from .views import Range

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOT_CONVERGED = 2
EXIT_DEGENERATE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tensorlib", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the randomized oracle suites")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--max-order", type=int, default=4)
    v.add_argument("--max-extent", type=int, default=5)
    v.add_argument("--scalar", choices=["int64", "float64"], default="float64")
    v.add_argument("--out", default=None, help="also write the report here")
    v.add_argument("--json", action="store_true", help="emit a JSON report")

    e = sub.add_parser("emit", help="emit a tensor as a MATLAB script")
    e.add_argument("--in", dest="input", required=True, help="tensor JSON file")
    e.add_argument("--name", default="A", help="MATLAB variable name")
    e.add_argument("--out", default=None, help="script path (default: stdout)")

    h = sub.add_parser("hopm", help="best rank-one approximation")
    h.add_argument("--in", dest="input", required=True, help="tensor JSON file")
    h.add_argument("--sweeps", type=int, default=50)
    h.add_argument("--tol", type=float, default=1e-10)
    h.add_argument("--json", action="store_true")

    d = sub.add_parser("demo", help="print a worked example")
    d.add_argument("which", choices=["strides", "views", "iterators", "ttv", "ttt"])
    return parser


def _seed_from(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("TENSORLIB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"invalid TENSORLIB_SEED {env!r}") from None
    return 42


def _fail(message: str) -> NoReturn:
    print(f"tensorlib: {message}", file=sys.stderr)
    raise SystemExit(EXIT_FAIL)


def _load_tensor(path: str) -> DenseTensor:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(
            f"parse error in {path}: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        )
    try:
        return DenseTensor.from_dict(obj)
    except ValueError as exc:
        _fail(f"invalid tensor in {path}: {exc}")


def _cmd_verify(parser, args) -> int:
    try:
        cfg = RunConfig(
            seed=_seed_from(args),
            trials=args.trials,
            max_order=args.max_order,
            max_extent=args.max_extent,
            scalar_kind=args.scalar,
        )
    except ValueError as exc:
        parser.error(str(exc))
    report = run_verification(cfg)
    text = (
        json.dumps(report.to_json_obj(), indent=2) + "\n"
        if args.json
        else report.to_text()
    )
    sys.stdout.write(text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"cannot write {args.out}: {exc}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_emit(parser, args) -> int:
    t = _load_tensor(args.input)
    script = MatlabScript()
    try:
        script.add_tensor(t, args.name)
    except ValueError as exc:  # --name is no MATLAB identifier
        parser.error(str(exc))
    if args.out:
        try:
            script.write(args.out)
        except OSError as exc:
            _fail(str(exc))
    else:
        sys.stdout.write(script.text())
    return EXIT_OK


def _cmd_hopm(parser, args) -> int:
    t = _load_tensor(args.input)
    try:
        state = hopm(t, max_sweeps=args.sweeps, tol=args.tol)
    except DegenerateInputError as exc:
        print(f"tensorlib: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:  # an option out of the range hopm accepts
        parser.error(str(exc))
    res = residual(t, state)
    if args.json:
        obj = {
            "converged": state.converged,
            "sweeps": state.sweeps,
            "scale": state.scale,
            "lambda_history": state.lambda_history,
            "residual": res,
            "vectors": [u.data for u in state.u],
        }
        print(json.dumps(obj, indent=2))
    else:
        for k, lam in enumerate(state.lambda_history, start=1):
            print(f"sweep {k}: lambda = {lam!r}")
        print(f"converged: {'yes' if state.converged else 'no'}")
        print(f"residual: {res!r}")
        for r, u in enumerate(state.u, start=1):
            print(f"u{r} = {u.data!r}")
    return EXIT_OK if state.converged else EXIT_NOT_CONVERGED


def _demo_strides() -> None:
    a = DenseTensor((4, 2, 3))
    b = DenseTensor((4, 2, 3), offsets=(1, -1, 0), layout=(3, 2, 1))
    print("A: shape (4, 2, 3), default layout (1, 2, 3)")
    print(f"   strides = {a.strides}")
    print("B: shape (4, 2, 3), offsets (1, -1, 0), layout (3, 2, 1)")
    print(f"   strides = {b.strides}")
    print("Dimension 1 of A is contiguous; in B dimension 3 is.")


def _demo_views() -> None:
    a = DenseTensor((4, 2, 3))
    for j in range(a.size):
        a.set_memory(j, j)
    v = a.view(Range(1, 2, 3), Range(0, 1), 2)
    print("A: shape (4, 2, 3), zero offsets, default layout")
    print("view ranges: 1:2:3, 0:1:1, index 2")
    print(f"view shape nv = {v.shape}")
    print(f"memory offset gamma = {v.gamma}")
    print("view element (0,0,0) reads target element (1,0,2):", v[0, 0, 0] == a[1, 0, 2])
    print("view element (1,1,0) reads target element (3,1,2):", v[1, 1, 0] == a[3, 1, 2])


def _demo_iterators() -> None:
    a = DenseTensor((4, 3, 2))
    print("A: shape (4, 3, 2), default layout; strides =", a.strides)
    first = a.dim_begin(2)
    last = a.dim_end(2)
    positions = []
    it = StrideIterator(first.data, first.pos, first.stride)
    while it != last:
        positions.append(it.pos)
        it.advance()
    print("fiber over dimension 2 from the origin visits memory indices:",
          ", ".join(str(p) for p in positions))


def _demo_ttv() -> None:
    a = DenseTensor((3, 4, 2), fill_value=1)
    b = DenseTensor((4,), fill_value=1)
    c = ttv(a, b, 2)
    print("A: all-ones shape (3, 4, 2); b: all-ones length 4")
    print(f"C = A x_2 b has shape {c.shape}")
    print(f"every element of C is {c[0, 0]} (each sums 4 ones)")


def _demo_ttt() -> None:
    a = DenseTensor((3, 4, 2), fill_value=1)
    b = DenseTensor((4, 3, 5), fill_value=1)
    spec = ContractionSpec(2, (3, 1, 2), (3, 2, 1))
    c = ttt(a, b, spec)
    print("A: shape (3, 4, 2); B: shape (4, 3, 5)")
    print("contract A dims (1, 2) with B dims (2, 1); free: A dim 3, B dim 3")
    print(f"C = ttt(A, B) has shape {c.shape}")
    print(f"every element of C is {c[0, 0]} (3*4 = 12 unit products)")


_DEMOS = {
    "strides": _demo_strides,
    "views": _demo_views,
    "iterators": _demo_iterators,
    "ttv": _demo_ttv,
    "ttt": _demo_ttt,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(parser, args)
    if args.command == "emit":
        return _cmd_emit(parser, args)
    if args.command == "hopm":
        return _cmd_hopm(parser, args)
    _DEMOS[args.which]()
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
