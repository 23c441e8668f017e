"""Command-line harness: randomized verification, MATLAB emission and
rank-one approximation.  The worked examples are the scripts in ``demos/``.

Exit codes: 0 success; 1 verification/processing failure, a malformed
tensor file or an unwritable ``--out``; 2 power method hit the sweep limit
without converging; 3 degenerate input (a mode norm zero or not finite, as
from NaN or infinite data); 64 usage error, an option value out of range
included, as is an ``emit --name`` that is no MATLAB identifier.  Defaults
are ``RunConfig``'s and ``hopm``'s; ``TENSORLIB_SEED``, when set, is the
seed's.  Identical seed and options produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

from .hopm import DegenerateInputError, hopm, residual
from .matlab_io import MatlabScript
from .tensor import DenseTensor
from .verify import _SCALAR_KINDS, RunConfig, run_verification

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
    v.add_argument("--trials", type=int, default=RunConfig.trials)
    v.add_argument("--max-order", type=int, default=RunConfig.max_order)
    v.add_argument("--max-extent", type=int, default=RunConfig.max_extent)
    v.add_argument("--scalar", choices=_SCALAR_KINDS, default=RunConfig.scalar_kind)
    v.add_argument("--out", default=None, help="also write the report here")
    v.add_argument("--json", action="store_true", help="emit a JSON report")
    v.set_defaults(run=lambda args: _cmd_verify(v, args))

    e = sub.add_parser("emit", help="emit a tensor as a MATLAB script")
    e.add_argument("--in", dest="input", required=True, help="tensor JSON file")
    e.add_argument("--name", default="A", help="MATLAB variable name")
    e.add_argument("--out", default=None, help="script path (default: stdout)")
    e.set_defaults(run=lambda args: _cmd_emit(e, args))

    h = sub.add_parser("hopm", help="best rank-one approximation",
                       argument_default=argparse.SUPPRESS)  # hopm's defaults apply
    h.add_argument("--in", dest="input", required=True, help="tensor JSON file")
    h.add_argument("--sweeps", dest="max_sweeps", metavar="SWEEPS", type=int)
    h.add_argument("--tol", type=float)
    h.add_argument("--json", action="store_true", default=False)
    h.set_defaults(run=lambda args: _cmd_hopm(h, args))
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
    return RunConfig.seed


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
    options = {k: v for k, v in vars(args).items() if k in ("max_sweeps", "tol")}
    try:
        state = hopm(t, **options)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
