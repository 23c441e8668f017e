"""``tools/bench_pairs.py`` on canned benchmark runs: fake checkouts whose
``perfbench/run.py`` prints prepared result lines, so no real benchmark
runs and nothing is timed."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "unit_cost", "unit": "refop", "better": "lower", "bound": 0.25},
    {"name": "throughput", "unit": "1/Mrefop", "better": "higher", "bound": 0.25},
]

# A stand-in for perfbench/run.py: the n-th call prints the n-th canned
# result line and writes the provenance record the real script writes.  A
# canned run's "attempted" entry is its operation count (9 if absent).
FAKE_RUN = """
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
assert args["--trace"] == "0"
canned = json.loads((here / "canned.json").read_text())
calls = here / "calls"
n = int(calls.read_text()) if calls.exists() else 0
calls.write_text(str(n + 1))
values = dict(canned["runs"][args["--workload"]][n % len(canned["runs"][args["--workload"]])])
attempted = values.pop("attempted", 9)
out = here / "out"
out.mkdir(exist_ok=True)
prov = dict(canned["provenance"], seed=int(args["--seed"]))
stem = f"{args['--workload']}-seed{args['--seed']}-trace0.json"
(out / stem).write_text(json.dumps({"provenance": prov}))
print("readable report")
print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": {
    k: {"value": v, "unit": "u"} for k, v in values.items()}}))
"""


def fake_checkout(root, name, sha, runs):
    """A directory with BENCHMARK.json and a fake perfbench/run.py that
    returns ``runs[workload][k]`` on its k-th call.  One call counter serves
    every workload, so each test below runs one."""
    d = root / name
    (d / "perfbench").mkdir(parents=True)
    (d / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    (d / "perfbench" / "run.py").write_text(FAKE_RUN)
    prov = {"git_sha": sha, "source_sha256": name * 4, "python": "3.x",
            "numpy": "1.x", "nproc": 2, "l2_bytes": 1}
    (d / "perfbench" / "canned.json").write_text(
        json.dumps({"runs": runs, "provenance": prov}))
    return d


def test_spread_uses_inclusive_quartiles():
    assert bench_pairs.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.spread([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}
    assert bench_pairs.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    def line(cost, tput):
        return {"metrics": {"unit_cost": {"value": cost}, "throughput": {"value": tput}}}

    pairs = [
        (line(2.0, 10.0), line(1.0, 12.0)),  # change better on both
        (line(2.0, 10.0), line(2.0, 10.0)),  # tie on both
        (line(1.0, 12.0), line(3.0, 8.0)),   # parent better on both
    ]
    got = bench_pairs.summarize(pairs, METRICS)
    assert got["unit_cost"]["change_wins"] == 1
    assert got["throughput"]["change_wins"] == 1
    assert got["unit_cost"]["parent"]["values"] == [2.0, 2.0, 1.0]
    assert got["unit_cost"]["change"] == {"median": 2.0, "q1": 1.5, "q3": 2.5,
                                          "values": [1.0, 2.0, 3.0]}
    assert got["unit_cost"]["median_ratio"] == 1.0
    assert got["throughput"]["median_ratio"] == 1.0
    assert got["throughput"]["unit"] == "1/Mrefop" and got["throughput"]["better"] == "higher"


def test_writes_the_bench_file_from_alternating_pairs(tmp_path):
    parent = fake_checkout(tmp_path, "p", "a" * 40, {"hopm": [
        {"unit_cost": 1.5, "throughput": 10.0, "attempted": 40},
        {"unit_cost": 1.6, "throughput": 11.0, "attempted": 41},
        {"unit_cost": 1.4, "throughput": 9.0, "attempted": 42},
        {"unit_cost": 1.7, "throughput": 12.0, "attempted": 43},
        {"unit_cost": 1.5, "throughput": 10.0, "attempted": 44},
    ]})
    change = fake_checkout(tmp_path, "c", "b" * 40, {"hopm": [
        {"unit_cost": 1.2, "throughput": 13.0, "attempted": 50},
        {"unit_cost": 1.1, "throughput": 11.0, "attempted": 51},
        {"unit_cost": 1.3, "throughput": 12.0, "attempted": 52},
        {"unit_cost": 1.2, "throughput": 12.5, "attempted": 53},
        {"unit_cost": 1.6, "throughput": 9.0, "attempted": 54},
    ]})
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "hopm", "--seed", "5", "--pairs", "5",
                             "--seconds", "0.1", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert set(bench) == {"parent", "change", "seed", "seconds", "pairs", "workloads"}
    assert bench["seed"] == 5 and bench["pairs"] == 5 and bench["seconds"] == 0.1
    assert bench["parent"] == {"git_sha": "a" * 40, "source_sha256": "pppp",
                               "python": "3.x", "numpy": "1.x", "nproc": 2}
    assert bench["change"]["git_sha"] == "b" * 40
    hopm = bench["workloads"]["hopm"]
    assert set(hopm) == {"first_in_pair", "attempted", "metrics"}
    assert hopm["first_in_pair"] == ["parent", "change", "parent", "change", "parent"]
    assert hopm["attempted"] == {"parent": [40, 41, 42, 43, 44],
                                 "change": [50, 51, 52, 53, 54]}
    cost = hopm["metrics"]["unit_cost"]
    assert cost["parent"] == {"median": 1.5, "q1": 1.5, "q3": 1.6,
                              "values": [1.5, 1.6, 1.4, 1.7, 1.5]}
    assert cost["change"]["median"] == 1.2
    assert (cost["change"]["q1"], cost["change"]["q3"]) == (1.2, 1.3)
    assert cost["change_wins"] == 4
    assert cost["median_ratio"] == pytest.approx(0.8)
    tput = hopm["metrics"]["throughput"]
    assert tput["change_wins"] == 3  # 13>10, 11=11, 12>9, 12.5>12, 9<10
    assert (parent / "perfbench" / "calls").read_text() == "5"
    assert (change / "perfbench" / "calls").read_text() == "5"


def test_prints_the_verdict_from_the_summary(tmp_path, capsys):
    parent = fake_checkout(tmp_path, "p", "a" * 40, {"hopm": [
        {"unit_cost": 1.0, "throughput": 10.0}, {"unit_cost": 1.1, "throughput": 10.0},
        {"unit_cost": 0.9, "throughput": 10.0}, {"unit_cost": 1.2, "throughput": 10.0},
    ]})
    change = fake_checkout(tmp_path, "c", "b" * 40, {"hopm": [
        {"unit_cost": 0.8, "throughput": 12.0}, {"unit_cost": 0.9, "throughput": 9.0},
        {"unit_cost": 1.0, "throughput": 10.0}, {"unit_cost": 0.7, "throughput": 0.0},
    ]})
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "hopm", "--seed", "5", "--pairs", "4",
                             "--seconds", "0", "--out", str(tmp_path / "b.json")]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["workload", "metric", "parent", "change", "change/parent",
                              "wins", "parent_q1", "parent_q3"]
    cells = [row.split() for row in rows]
    # unit_cost: parent 1.0 1.1 0.9 1.2, change 0.8 0.9 1.0 0.7; throughput:
    # parent all 10.0, change 12.0 9.0 10.0 0.0 (one win, one tie).
    assert cells == [
        ["hopm", "unit_cost", "1.05", "0.85", "0.8095", "3", "of", "4", "0.975", "1.125"],
        ["hopm", "throughput", "10", "9.5", "0.9500", "1", "of", "4", "10", "10"],
    ]
    metrics = json.loads((tmp_path / "b.json").read_text())["workloads"]["hopm"]["metrics"]
    assert metrics["unit_cost"]["median_ratio"] == pytest.approx(0.85 / 1.05)


def test_a_failing_run_stops_the_script(tmp_path):
    parent = fake_checkout(tmp_path, "p", "a" * 40, {"hopm": [{"unit_cost": 1.0, "throughput": 1.0}]})
    change = tmp_path / "empty"
    (change / "perfbench").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    (change / "perfbench" / "run.py").write_text("import sys\nsys.exit(2)\n")
    with pytest.raises(bench_pairs.RunFailed, match="exited 2"):
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--workload", "hopm", "--seed", "1", "--pairs", "1",
                          "--seconds", "0", "--out", str(tmp_path / "b.json")])
    assert not (tmp_path / "b.json").exists()


# FAKE_RUN that also answers ``--trace 1`` with the canned per-layer
# metrics under "traced", without counting the call.
FAKE_TRACED_RUN = FAKE_RUN.replace('assert args["--trace"] == "0"\n', "").replace(
    'calls = here / "calls"\n', '''if args["--trace"] == "1":
    out = here / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args['--workload']}-seed{args['--seed']}-trace1.json"
    (out / stem).write_text(json.dumps({"provenance": canned["provenance"]}))
    print(json.dumps({"correct": True, "attempted": canned["traced_attempted"],
                      "failed": 0, "metrics": {
        k: {"value": v, "unit": "count"} for k, v in canned["traced"].items()}}))
    sys.exit(0)
calls = here / "calls"
''')


def test_trace_metrics_come_from_one_traced_run_per_side(tmp_path):
    sides = []
    for name, sha, calls, traced_ops in (("p", "a" * 40, 200.0, 543), ("c", "b" * 40, 50.0, 959)):
        d = fake_checkout(tmp_path, name, sha, {"oracle": [{"unit_cost": 1.0, "throughput": 1.0}]})
        (d / "perfbench" / "run.py").write_text(FAKE_TRACED_RUN)
        canned = json.loads((d / "perfbench" / "canned.json").read_text())
        canned["traced"] = {"tensor.getitem.calls": calls, "views.getitem.calls": 0.0}
        canned["traced_attempted"] = traced_ops
        (d / "perfbench" / "canned.json").write_text(json.dumps(canned))
        sides.append(d)
    out = tmp_path / "BENCH_t.json"
    args = ["--parent", str(sides[0]), "--change", str(sides[1]), "--workload", "oracle",
            "--seed", "3", "--pairs", "2", "--seconds", "0", "--out", str(out)]
    assert bench_pairs.main(args + ["--trace-metric", "tensor.getitem.calls",
                                    "--trace-metric", "views.getitem.calls"]) == 0
    oracle = json.loads(out.read_text())["workloads"]["oracle"]
    assert oracle["attempted"] == {"parent": [9, 9], "change": [9, 9]}
    assert oracle["traced_attempted"] == {"parent": 543, "change": 959}
    traced = oracle["traced"]
    assert traced == {
        "tensor.getitem.calls": {"unit": "count", "parent": 200.0, "change": 50.0,
                                 "ratio": 0.25},
        "views.getitem.calls": {"unit": "count", "parent": 0.0, "change": 0.0,
                                "ratio": None},
    }
    assert (sides[0] / "perfbench" / "calls").read_text() == "2"
    with pytest.raises(bench_pairs.RunFailed, match="no metric 'nope'"):
        bench_pairs.main(args + ["--trace-metric", "nope"])


def test_traced_metrics_are_also_recorded_per_attempted_operation(tmp_path):
    # A faster change fits more traced operations into the run: its total
    # kernel time rises while its time per operation falls.
    sides = []
    for name, sha, kernel_s, calls, traced_ops in (
        ("p", "a" * 40, 2.0, 500.0, 400),
        ("c", "b" * 40, 3.0, 0.0, 1000),
    ):
        d = fake_checkout(tmp_path, name, sha, {"oracle": [{"unit_cost": 1.0, "throughput": 1.0}]})
        (d / "perfbench" / "run.py").write_text(FAKE_TRACED_RUN)
        canned = json.loads((d / "perfbench" / "canned.json").read_text())
        canned["traced"] = {"verify.kernel_s": kernel_s, "views.getitem.calls": calls}
        canned["traced_attempted"] = traced_ops
        (d / "perfbench" / "canned.json").write_text(json.dumps(canned))
        sides.append(d)
    out = tmp_path / "BENCH_t.json"
    assert bench_pairs.main([
        "--parent", str(sides[0]), "--change", str(sides[1]), "--workload", "oracle",
        "--seed", "3", "--pairs", "1", "--seconds", "0", "--out", str(out),
        "--trace-metric", "verify.kernel_s", "--trace-metric", "views.getitem.calls"]) == 0
    oracle = json.loads(out.read_text())["workloads"]["oracle"]
    assert oracle["traced"]["verify.kernel_s"]["ratio"] == 1.5
    per_op = oracle["traced_per_attempted"]
    assert per_op["verify.kernel_s"] == {"unit": "count/op", "parent": 0.005,
                                         "change": 0.003, "ratio": pytest.approx(0.6)}
    assert per_op["views.getitem.calls"] == {"unit": "count/op", "parent": 1.25,
                                             "change": 0.0, "ratio": 0.0}


def test_traced_pairs_alternate_and_divide_ns_figures_by_refop(tmp_path, monkeypatch):
    # Three traced pairs at most, alternating which side runs first; every
    # figure in ns is divided by its own run's refop_ns before the median.
    calls = []
    canned = {
        "parent": [(100.0, 2.0, 10), (130.0, 2.5, 12), (90.0, 1.5, 11)],
        "change": [(60.0, 2.0, 20), (80.0, 1.0, 22), (70.0, 1.4, 21)],
    }

    def fake_run_once(checkout, workload, seed, seconds, trace=0):
        side = checkout.name
        calls.append((side, trace))
        assert trace == 1
        ns, refop_ns, attempted = canned[side][sum(s == side for s, _ in calls) - 1]
        metrics = {"contraction.ttv.m1.first.ns_per_madd": {"value": ns, "unit": "ns"},
                   "hopm.residual.self_s": {"value": attempted / 10, "unit": "s"}}
        return {"result": {"attempted": attempted, "metrics": metrics},
                "provenance": {}, "refop_ns": refop_ns}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    names = ["contraction.ttv.m1.first.ns_per_madd", "hopm.residual.self_s"]
    got = bench_pairs.traced_pass(sides, "hopm", 5, 0.0, names, pairs=10)
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent",
                                           "parent", "change"]
    ttv = "contraction.ttv.m1.first.ns_per_madd"
    assert got["traced_values"][ttv] == {"parent": [100.0, 130.0, 90.0],
                                         "change": [60.0, 80.0, 70.0]}
    assert got["traced"][ttv] == {"unit": "ns", "parent": 100.0, "change": 70.0,
                                  "ratio": 0.7}
    assert got["traced_attempted"] == {"parent": 11, "change": 21}
    assert got["traced_attempted_values"] == {"parent": [10, 12, 11], "change": [20, 22, 21]}
    # Per refop: parent 50, 52, 60 and change 30, 80, 50.
    assert got["traced_per_refop"] == {ttv: {"unit": "refop", "parent": 52.0,
                                             "change": 50.0, "ratio": 50.0 / 52.0}}
    residual = got["traced_per_attempted"]["hopm.residual.self_s"]
    assert residual["unit"] == "s/op"
    assert residual["parent"] == residual["change"] == pytest.approx(0.1)

    calls.clear()
    got = bench_pairs.traced_pass(sides, "hopm", 5, 0.0, names[1:], pairs=1)
    assert calls == [("parent", 1), ("change", 1)]
    assert "traced_per_refop" not in got
