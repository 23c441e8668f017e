"""Alternating parent/change pairs of ``perfbench/run.py``, summarized as one
``BENCH_*.json`` file.

Usage, from anywhere::

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload hopm --workload oracle --seed N --pairs K \\
        --seconds S --out BENCH_7.json [--trace-metric NAME ...]

``--parent`` and ``--change`` are checkouts of the two commits (``git
clone`` or ``git worktree``).  Each pair runs ``perfbench/run.py --trace 0``
once in each checkout, with the same workload, seed and seconds, and the
side that runs first alternates from pair to pair.  From every run the
script reads the result JSON that ``run.py`` prints as its last line and
the provenance of ``perfbench/out/<workload>-seed<N>-trace0.json``; it
times nothing itself.

The output holds each side's git sha, source hash, Python, NumPy and
``nproc``, the seed, seconds and pair count, and, for each workload and each
end-to-end metric of the change's ``BENCHMARK.json``: its unit and better
direction, every run's value in pair order, each side's median and
quartiles, and how many pairs the change won (ties win for neither side).
It also records every run's ``attempted`` operation count in pair order,
because a faster change fits more operations into the same seconds and
``peak_rss_mb`` grows with that count.  Once the file is written, the
script prints the verdict from the same summary: one row per workload and
end-to-end metric with the parent's and the change's medians, their
ratio, the pairs the change won and the parent's quartiles.

With ``--trace-metric NAME`` (repeatable), each workload also gets up to
three alternating pairs of ``--trace 1`` runs after its pairs (no more
pairs than ``--pairs``), and the output records, for each named per-layer
metric, every traced run's value in pair order, each side's median and the
change/parent ratio of the medians, and each side's ``attempted`` counts.
Traced totals such as ``verify.kernel_s`` sum over however many operations
fit into the run, so each metric is also recorded per attempted operation
(each run's value divided by its own ``attempted``, then the median).
Figures in ns, such as ``contraction.ttv.m1.first.ns_per_madd``, are also
recorded in refops: each run's value divided by the ``refop_ns`` in its
``perfbench/out`` record, which cancels the host's speed state during
that run.  Traced runs are slowed by the tracer, so they show where work
moved (call counts, self times), not a timing claim.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PROVENANCE_KEYS = ("git_sha", "source_sha256", "python", "numpy", "nproc")


class RunFailed(RuntimeError):
    pass


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run in ``checkout``, untraced by default: its result
    line, and the provenance and ``refop_ns`` that ``run.py`` recorded."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
    record = json.loads((checkout / "perfbench" / "out"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": json.loads(lines[-1]), "provenance": record["provenance"],
            "refop_ns": record.get("refop_ns")}


def git_head(checkout: Path):
    """The checkout's HEAD sha, for checkouts whose provenance has none
    (``run.py`` reads ``.git/HEAD`` directly, which a worktree lacks)."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def spread(values) -> dict:
    """Median and quartiles (inclusive method: the quartiles of ``[1..5]``
    are 2 and 4)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs, metrics) -> dict:
    """Per-metric summary of ``pairs``, a list of (parent, change) result
    lines, over ``metrics``, a list of BENCHMARK.json end-to-end entries."""
    out = {}
    for m in metrics:
        name = m["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if m["better"] == "higher" else -1
        ps, cs = spread(parent), spread(change)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": {**ps, "values": parent},
            "change": {**cs, "values": change},
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "median_ratio": cs["median"] / ps["median"] if ps["median"] else None,
        }
    return out


def verdict(workloads: dict, pairs: int) -> str:
    """One row per workload and end-to-end metric: both medians, the
    change/parent ratio of the medians, the pairs the change won of
    ``pairs``, and the parent's quartiles."""
    lines = ["workload".ljust(10) + "metric".ljust(13)
             + "".join(h.rjust(15) for h in ("parent", "change", "change/parent",
                                             "wins", "parent_q1", "parent_q3"))]
    for w, summary in workloads.items():
        for name, m in summary["metrics"].items():
            ratio = "n/a" if m["median_ratio"] is None else f"{m['median_ratio']:.4f}"
            wins, p = f"{m['change_wins']} of {pairs}", m["parent"]
            lines.append(f"{w:10}{name:13}{p['median']:15.5g}{m['change']['median']:15.5g}"
                         f"{ratio:>15}{wins:>15}{p['q1']:15.5g}{p['q3']:15.5g}")
    return "\n".join(lines)


TRACED_PAIRS = 3


def pair_order(i: int):
    """The sides of pair ``i`` in the order they run: parent first in even
    pairs, change first in odd ones."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def traced_pass(sides, workload: str, seed: int, seconds: float, names, pairs: int):
    """``min(pairs, TRACED_PAIRS)`` alternating pairs of ``--trace 1`` runs:
    the workload's ``traced*`` entries (see the module docstring)."""
    runs = {"parent": [], "change": []}
    for i in range(min(pairs, TRACED_PAIRS)):
        for side in pair_order(i):
            run = run_once(sides[side], workload, seed, seconds, trace=1)
            runs[side].append(dict(run["result"], refop_ns=run["refop_ns"]))
    for name in names:
        if any(name not in r["metrics"] for rs in runs.values() for r in rs):
            raise RunFailed(f"traced {workload} run reports no metric {name!r}")
    units = {name: runs["parent"][0]["metrics"][name]["unit"] for name in names}
    ns = [name for name in names if units[name] == "ns"]
    if ns and not all(r["refop_ns"] for rs in runs.values() for r in rs):
        raise RunFailed(f"a traced {workload} run records no refop_ns")

    def figures(value, keys):
        """Every run's ``value(run, name)`` for each name in ``keys``, in
        pair order."""
        return {name: {side: [value(r, name) for r in rs] for side, rs in runs.items()}
                for name in keys}

    def summary(figs, unit):
        """Each side's median of ``figs`` and the change/parent ratio."""
        out = {}
        for name, got in figs.items():
            p, c = statistics.median(got["parent"]), statistics.median(got["change"])
            out[name] = {"unit": unit(units[name]), "parent": p, "change": c,
                         "ratio": c / p if p else None}
        return out

    def raw(r, name):
        return r["metrics"][name]["value"]

    values = figures(raw, names)
    out = {
        "traced": summary(values, str),
        "traced_values": values,
        "traced_attempted": {side: statistics.median(r["attempted"] for r in rs)
                             for side, rs in runs.items()},
        "traced_attempted_values": {side: [r["attempted"] for r in rs]
                                    for side, rs in runs.items()},
        "traced_per_attempted": summary(
            figures(lambda r, name: raw(r, name) / r["attempted"], names),
            lambda u: f"{u}/op"),
    }
    if ns:
        out["traced_per_refop"] = summary(
            figures(lambda r, name: raw(r, name) / r["refop_ns"], ns), lambda u: "refop")
    return out


def side_provenance(runs, checkout: Path) -> dict:
    first = runs[0]["provenance"]
    prov = {k: first.get(k) for k in PROVENANCE_KEYS}
    for r in runs[1:]:
        if r["provenance"].get("source_sha256") != prov["source_sha256"]:
            raise RunFailed(f"sources in {checkout} changed between runs")
    if prov["git_sha"] is None:
        prov["git_sha"] = git_head(checkout)
    return prov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-metric", action="append", default=[])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    workloads = {}
    for w in args.workload:
        pairs, firsts = [], []
        for i in range(args.pairs):
            order = pair_order(i)
            firsts.append(order[0])
            got = {}
            for side in order:
                got[side] = run_once(sides[side], w, args.seed, args.seconds)
                runs[side].append(got[side])
                print(f"{w} pair {i + 1}/{args.pairs} {side}: "
                      f"{json.dumps(got[side]['result'])}", file=sys.stderr)
            pairs.append((got["parent"]["result"], got["change"]["result"]))
        workloads[w] = {
            "first_in_pair": firsts,
            "attempted": {"parent": [p["attempted"] for p, _ in pairs],
                          "change": [c["attempted"] for _, c in pairs]},
            "metrics": summarize(pairs, spec["end_to_end"]),
        }
        if args.trace_metric:
            workloads[w].update(traced_pass(
                sides, w, args.seed, args.seconds, args.trace_metric, args.pairs))

    bench = {
        "parent": side_provenance(runs["parent"], args.parent),
        "change": side_provenance(runs["change"], args.change),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(verdict(workloads, args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
