import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from tensorlib import DenseTensor, cli, contraction, hopm, rank_one_compose
from tensorlib.cli import _build_parser, main
from tensorlib.verify import FAMILIES, RunConfig

from conftest import bump_first, corrupt_call

GOLDEN = (
    "A = cat(3, [ 0 2 4 6 ; 8 10 12 14 ; 16 18 20 22 ], "
    "[ 1 3 5 7 ; 9 11 13 15 ; 17 19 21 23 ]);"
)


def write_tensor(path, t):
    path.write_text(json.dumps(t.to_dict()))
    return str(path)


def write_json(tmp_path, obj, name="t.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def exit_code(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    return err.value.code


MALFORMED = [
    {"shape": 5, "data": [1, 2, 3, 4, 5]},
    {"shape": [2.5], "data": [1, 2]},
    {"shape": [2], "data": "ab"},
    {"shape": [1], "data": 5},
    {"shape": [2], "data": [True, False]},
    {"shape": [2, 2], "data": ["a", "b", "c", "d"]},
]


def iota_tensor(shape, **kw):
    t = DenseTensor(shape, **kw)
    for j in range(t.size):
        t.set_memory(j, j)
    return t


class TestEmit:
    def test_golden_from_file(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "a.json", iota_tensor((3, 4, 2), layout=(3, 2, 1)))
        assert main(["emit", "--in", path, "--name", "A"]) == 0
        assert capsys.readouterr().out.strip() == GOLDEN

    def test_single_element(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "s.json", DenseTensor.from_memory((1,), [7]))
        assert main(["emit", "--in", path, "--name", "s"]) == 0
        assert capsys.readouterr().out.strip() == "s = [ 7 ];"

    def test_output_file_deterministic(self, tmp_path):
        src = write_tensor(tmp_path / "t.json", iota_tensor((2, 3)))
        out1, out2 = tmp_path / "one.m", tmp_path / "two.m"
        assert main(["emit", "--in", src, "--out", str(out1)]) == 0
        assert main(["emit", "--in", src, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_equal_tensors_emit_identically(self, tmp_path, capsys):
        a = iota_tensor((2, 3))
        b = DenseTensor((2, 3), layout=(2, 1))
        b.assign(a)
        pa = write_tensor(tmp_path / "a.json", a)
        pb = write_tensor(tmp_path / "b.json", b)
        main(["emit", "--in", pa])
        text_a = capsys.readouterr().out
        main(["emit", "--in", pb])
        assert capsys.readouterr().out == text_a

    def test_parse_error_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as err:
            main(["emit", "--in", str(bad)])
        assert err.value.code == 1
        msg = capsys.readouterr().err
        assert "line 1" in msg and "column" in msg

    def test_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({"shape": [2, 2], "data": [1]}))
        with pytest.raises(SystemExit) as err:
            main(["emit", "--in", str(bad)])
        assert err.value.code == 1

    @pytest.mark.parametrize("obj", MALFORMED)
    def test_malformed_tensor_exits_one(self, tmp_path, capsys, obj):
        assert exit_code(["emit", "--in", write_json(tmp_path, obj)]) == 1
        assert capsys.readouterr().err.startswith("tensorlib: invalid tensor in ")

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        src = write_tensor(tmp_path / "t.json", iota_tensor((2, 3)))
        out = str(tmp_path / "no-such-dir" / "t.m")
        assert exit_code(["emit", "--in", src, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("tensorlib: cannot write ")

    @pytest.mark.parametrize("name", ["1x", "\u00c4", "a" * 64])
    def test_bad_name_is_usage_error_and_writes_nothing(self, tmp_path, capsys, name):
        src = write_tensor(tmp_path / "t.json", iota_tensor((2, 2)))
        out = tmp_path / "x.m"
        assert exit_code(["emit", "--in", src, "--name", name, "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert "error: invalid MATLAB name" in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_name_to_stdout_prints_nothing(self, tmp_path, capsys):
        src = write_tensor(tmp_path / "t.json", iota_tensor((2, 2)))
        assert exit_code(["emit", "--in", src, "--name", "1x"]) == 64
        assert capsys.readouterr().out == ""

    def test_longest_name_is_accepted(self, tmp_path, capsys):
        name = "A" + "b_9" * 20 + "zz"
        assert len(name) == 63
        src = write_tensor(tmp_path / "t.json", iota_tensor((2, 2)))
        out = tmp_path / "x.m"
        assert main(["emit", "--in", src, "--name", name, "--out", str(out)]) == 0
        assert out.read_text() == f"{name} = [ 0 2 ; 1 3 ];\n"


class TestHopmCommand:
    def test_rank_one_converges(self, tmp_path, capsys):
        u = DenseTensor.from_memory((3,), [0.6, 0.0, 0.8])
        v = DenseTensor.from_memory((2,), [1.0, 0.0])
        path = write_tensor(tmp_path / "r1.json", rank_one_compose(2.0, [u, v]))
        assert main(["hopm", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "sweep 1: lambda" in out
        assert "converged: yes" in out
        assert "residual" in out

    def test_zero_tensor_exits_degenerate(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "z.json", DenseTensor((2, 2), fill_value=0.0))
        assert main(["hopm", "--in", path]) == 3

    @pytest.mark.parametrize(
        "data", ["[1.0, NaN, 2.0, 3.0]", "[1.0, Infinity, 2.0, 3.0]", "[1.5e308, 1.5e308]"]
    )
    def test_non_finite_exits_degenerate(self, tmp_path, capsys, data):
        shape = [2] if data.startswith("[1.5e308") else [2, 2]
        path = tmp_path / "nf.json"
        path.write_text(f'{{"shape": {shape}, "data": {data}}}')
        assert main(["hopm", "--in", str(path)]) == 3
        out, err = capsys.readouterr()
        assert "sweep" not in out
        assert err.startswith("tensorlib: degenerate input: zero or non-finite norm")

    @pytest.mark.parametrize("obj", MALFORMED)
    def test_malformed_tensor_exits_one(self, tmp_path, capsys, obj):
        assert exit_code(["hopm", "--in", write_json(tmp_path, obj)]) == 1
        assert capsys.readouterr().err.startswith("tensorlib: invalid tensor in ")

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert exit_code(["hopm", "--in", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("tensorlib: cannot read ")

    def test_zero_sweeps_is_usage_error(self, tmp_path, capsys):
        path = write_tensor(tmp_path / "t.json", iota_tensor((2, 2)))
        assert exit_code(["hopm", "--in", path, "--sweeps", "0"]) == 64
        assert "error: max_sweeps must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_negative_or_nan_tol_is_usage_error(self, tmp_path, capsys, tol):
        path = write_tensor(tmp_path / "t.json", iota_tensor((2, 2)))
        assert exit_code(["hopm", "--in", path, "--tol", tol]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: tol must be >= 0" in err and "Traceback" not in err

    def test_one_sweep_usually_unconverged(self, tmp_path):
        import random

        rng = random.Random(11)
        t = DenseTensor((3, 3, 2))
        t.data = [rng.uniform(-1, 1) for _ in range(t.size)]
        path = write_tensor(tmp_path / "r.json", t)
        assert main(["hopm", "--in", path, "--sweeps", "1"]) == 2

    def test_json_report(self, tmp_path, capsys):
        u = DenseTensor.from_memory((2,), [1.0, 0.0])
        path = write_tensor(tmp_path / "r1.json", rank_one_compose(1.5, [u, u]))
        assert main(["hopm", "--in", path, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["converged"] is True
        assert abs(obj["scale"] - 1.5) < 1e-10

    @pytest.mark.parametrize("options, keywords", [
        ([], {}),
        (["--sweeps", "3"], {"max_sweeps": 3}),
        (["--tol", "0.5"], {"tol": 0.5}),
        (["--sweeps", "2", "--tol", "0"], {"max_sweeps": 2, "tol": 0.0}),
    ])
    def test_passes_hopm_only_the_options_given(self, tmp_path, monkeypatch, capsys,
                                                options, keywords):
        seen = []

        def spy(t, **kw):
            seen.append(kw)
            return hopm(t, **kw)

        monkeypatch.setattr(cli, "hopm", spy)
        path = write_tensor(tmp_path / "t.json", iota_tensor((2, 2)))
        main(["hopm", "--in", path, *options])
        assert seen == [keywords]


class TestVerifyCommand:
    def test_small_run_exits_zero(self, capsys):
        assert main(["verify", "--seed", "5", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out and "0 failures" in out

    def test_reports_at_least_ten_families(self, capsys):
        assert main(["verify", "--seed", "42", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        family_lines = [l for l in out.splitlines() if "/1 pass" in l]
        assert len(family_lines) >= 10

    def test_wrong_ttv_exits_one_with_its_operands(self, monkeypatch, capsys):
        corrupt_call(monkeypatch, contraction, "ttv", lambda out, *args: bump_first(out))
        assert main(["verify", "--seed", "5", "--trials", "2"]) == 1
        out = capsys.readouterr().out
        assert "ttv                      1/2 FAIL" in out
        line = next(l for l in out.splitlines() if l.startswith("  counterexample: "))
        failure = json.loads(line.split(": ", 1)[1])
        assert failure["op"] == "ttv" and failure["trial"] == 0
        for key in ("a", "b"):
            assert {"shape", "layout", "offsets", "data"} <= set(failure[key])

    def test_raising_ttt_prints_the_full_report_and_exits_one(self, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("ttt broke")

        monkeypatch.setattr(contraction, "ttt", broken)
        assert main(["verify", "--seed", "5", "--trials", "2"]) == 1
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.endswith((" pass", " FAIL"))]
        assert len(rows) == len(FAMILIES)
        assert [l.split()[:3] for l in rows if l.endswith("FAIL")] == [["ttt", "0/2", "FAIL"]]
        assert out.endswith(f"total: {len(FAMILIES)} families, {2 * len(FAMILIES)} trials, "
                            "2 failures\n")
        line = next(l for l in out.splitlines() if l.startswith("  counterexample: "))
        failure = json.loads(line.split(": ", 1)[1])
        assert failure["error"] == "RuntimeError: ttt broke"
        assert failure["where"].startswith("test_cli.py:")
        assert {"a", "b", "q", "phi", "psi"} <= set(failure)

    def test_inject_fault_flag_is_gone(self, capsys):
        assert exit_code(["verify", "--inject-fault"]) == 64

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--trials", "0"),
            ("--max-order", "9"),
            ("--max-order", "1"),
            ("--max-extent", "0"),
        ],
    )
    def test_out_of_range_option_is_usage_error(self, capsys, option, value):
        assert exit_code(["verify", option, value]) == 64
        assert "tensorlib: error: " in capsys.readouterr().err

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "report.txt")
        assert exit_code(["verify", "--seed", "5", "--trials", "1", "--out", out]) == 1
        assert capsys.readouterr().err.startswith("tensorlib: cannot write ")

    def test_deterministic_output(self, capsys):
        main(["verify", "--seed", "9", "--trials", "2"])
        first = capsys.readouterr().out
        main(["verify", "--seed", "9", "--trials", "2"])
        assert capsys.readouterr().out == first

    def test_json_report(self, capsys):
        assert main(["verify", "--seed", "5", "--trials", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["verify", "--seed", "5", "--trials", "1", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_defaults_are_run_configs(self, capsys, monkeypatch):
        @dataclass
        class Small(RunConfig):
            seed: int = 3
            trials: int = 2
            max_order: int = 2
            max_extent: int = 2
            scalar_kind: str = "int64"

        monkeypatch.delenv("TENSORLIB_SEED", raising=False)
        monkeypatch.setattr(cli, "RunConfig", Small)
        assert main(["verify"]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head == "verify seed=3 trials=2 max-order=2 max-extent=2 scalar=int64"

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("TENSORLIB_SEED", "123")
        main(["verify", "--trials", "1"])
        assert "seed=123" in capsys.readouterr().out

    def test_bad_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("TENSORLIB_SEED", "abc")
        with pytest.raises(SystemExit) as err:
            main(["verify", "--trials", "1"])
        assert err.value.code == 64


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 64

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as err:
            main(["emit"])
        assert err.value.code == 64

    def test_demo_subcommand_is_gone(self, capsys):
        assert exit_code(["demo", "strides"]) == 64
        assert "invalid choice: 'demo'" in capsys.readouterr().err

    def test_readme_synopsis_names_every_subcommand(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
        synopsis = {
            line.split()[1] for line in block.splitlines() if line.startswith("tensorlib ")
        }
        (sub,) = [
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert synopsis == set(sub.choices)
