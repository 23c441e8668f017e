"""Per-phase A/B timer for the trials of ``tensorlib verify``.

Usage, from anywhere::

    python3 tools/verify_phases.py [--against DIR] [--seed S] [--reps R]
                                   [--trials T] [--only REGEX]

Runs ``T`` trials of every family of ``verify.FAMILIES`` for each scalar
kind, on the streams ``tensorlib verify --seed S`` draws, and splits each
trial's time into three phases:

* ``oracle``: everything outside ``_Comparator.run``: the draws, the
  oracle's reads and its expected values;
* ``kernel``: the library calls that ``run`` makes;
* ``judge``: the rest of ``run``: copies taken before a write, and the
  comparison with the expected values.

Each checkout's ``_Comparator`` gets the same subclass, whose ``run``
reads the clock on entry, around the kernel call and after judging.
Every sample restarts each family's streams, so both sides and every
repetition run the same trials.  ``--only`` times just the families whose
names the regular expression matches.

Loading, sampling and the report are ``tools/tiny_calls.py``'s, in
microseconds per trial; one row per family and phase, then one row per
phase summed over all families.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tiny_calls import load, measure, report  # noqa: E402

PHASES = ("oracle", "kernel", "judge")
KINDS = ("float64", "int64")


def comparator(verify):
    """``verify``'s ``_Comparator`` class with the phase clock: each run
    adds its kernel's seconds to its instance's ``seconds`` dict under
    "kernel", and the rest of its own under "judge"."""
    cls = verify._Comparator
    judge = cls.run

    class Clocked(cls):
        seconds = None

        def run(self, context, expected, kernel, args, shape=None, dst=None):
            spans = []

            def clocked(*args):
                start = time.perf_counter()
                try:
                    return kernel(*args)
                finally:
                    spans.append(time.perf_counter() - start)

            entered = time.perf_counter()
            bad = judge(self, context, expected, clocked, args, shape, dst)
            spent = time.perf_counter() - entered
            self.seconds["kernel"] += sum(spans)
            self.seconds["judge"] += spent - sum(spans)
            return bad

    return Clocked


def trials(verify, seed: int, count: int):
    """``run(family)``: the seconds per phase of ``count`` trials of each
    kind of ``family``, from the start of its streams."""
    cls = comparator(verify)
    checks = dict(verify.FAMILIES)
    configs = [verify.RunConfig(seed=seed, trials=count, scalar_kind=k) for k in KINDS]

    def run(family: str) -> dict:
        timings = dict.fromkeys(PHASES, 0.0)
        clock = time.perf_counter
        for cfg in configs:
            rng = random.Random(f"{seed}:{family}:{cfg.scalar_kind}")
            cmp = cls(cfg.scalar_kind)
            cmp.seconds = timings
            check = checks[family]
            start = clock()
            for _ in range(count):
                check(rng, cfg, cmp)
            timings["oracle"] += clock() - start
        timings["oracle"] -= timings["kernel"] + timings["judge"]
        return timings

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="checkout to compare with")
    parser.add_argument("--seed", type=int, default=4409)
    parser.add_argument("--reps", type=int, default=30)
    parser.add_argument("--trials", type=int, default=20, help="trials per kind")
    parser.add_argument("--only", default="", metavar="REGEX",
                        help="time only the families whose names this matches")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.trials < 1:
        parser.error("--reps and --trials must be >= 1")
    try:
        only = re.compile(args.only)
    except re.error as e:
        parser.error(f"--only {args.only!r}: {e}")
    libs = [load(HERE.parent, "tensorlib")]
    if args.against is not None:
        libs.append(load(args.against.resolve(), "tensorlib_against"))
    verifies = [sys.modules[tl.__name__ + ".verify"] for tl in libs]
    runners = [trials(verify, args.seed, args.trials) for verify in verifies]
    families = [name for name, _ in verifies[0].FAMILIES if only.search(name)]
    if not families:
        parser.error(f"--only {args.only!r} matches no family")
    names = [f"{family}.{phase}" for family in families for phase in PHASES]
    per_trial = 1e6 / (len(KINDS) * args.trials)
    split = {}

    def sample(k: int, name: str) -> float:
        """µs per trial in one phase; a family's first phase runs its
        trials, and its other phases read the same run."""
        family, phase = name.rsplit(".", 1)
        if phase == PHASES[0]:
            split[k] = runners[k](family)
        return split[k][phase] * per_trial

    samples = measure(names, len(libs), args.reps, sample)
    for phase in PHASES:
        rows = [runs for name, runs in samples.items() if name.endswith("." + phase)]
        samples[f"all.{phase}"] = [list(map(sum, zip(*side))) for side in zip(*rows)]
    print(report(samples, "family.phase", "us"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
