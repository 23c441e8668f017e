import random

import pytest

from tensorlib import (
    DenseTensor,
    MatlabScript,
    Range,
    emit_tensor,
    generate,
    write_script,
    zero_indices,
)

from conftest import cat_arity, parse_matlab_statement, rand_dense, rand_operand, read_box

GOLDEN = (
    "A = cat(3, [ 0 2 4 6 ; 8 10 12 14 ; 16 18 20 22 ], "
    "[ 1 3 5 7 ; 9 11 13 15 ; 17 19 21 23 ]);"
)


def normalize(text: str) -> str:
    return " ".join(text.split())


def iota_tensor(shape, **kw):
    t = DenseTensor(shape, **kw)
    for j in range(t.size):
        t.set_memory(j, j)
    return t


class TestEmitTensor:
    def test_golden_line(self):
        a = iota_tensor((3, 4, 2), layout=(3, 2, 1))
        assert normalize(emit_tensor(a, "A")) == normalize(GOLDEN)

    def test_identity_matrix(self):
        i2 = DenseTensor((2, 2))
        i2[0, 0] = 1
        i2[1, 1] = 1
        assert emit_tensor(i2, "I") == "I = [ 1 0 ; 0 1 ];"

    def test_column_vector(self):
        v = DenseTensor.from_memory((3,), [5, 6, 7])
        assert emit_tensor(v, "v") == "v = [ 5 ; 6 ; 7 ];"

    def test_layout_and_offset_invariance(self):
        rng = random.Random(0)
        a = rand_dense(rng, (3, 2, 2))
        b = DenseTensor((3, 2, 2), offsets=(1, -1, 2), layout=(2, 3, 1))
        b.assign(a)
        assert emit_tensor(a, "T") == emit_tensor(b, "T")

    def test_views_emit_like_their_materialization(self):
        a = iota_tensor((4, 2, 3))
        v = a.view(Range(1, 2, 3), Range(0, 1), 2)
        assert emit_tensor(v, "V") == emit_tensor(v.materialize(), "V")

    @pytest.mark.parametrize("name", ["1x", "_a", "", "a b", "x-y", "\u00c4", "a\n", "a" * 64])
    def test_name_must_be_a_matlab_identifier(self, name):
        with pytest.raises(ValueError, match="invalid MATLAB name"):
            emit_tensor(DenseTensor.from_memory((1,), [1]), name)

    @pytest.mark.parametrize("name", ["x", "A_1", "z" * 63])
    def test_identifier_names_accepted(self, name):
        t = DenseTensor.from_memory((1,), [1])
        assert emit_tensor(t, name) == f"{name} = [ 1 ];"

    def test_float_formatting(self):
        t = DenseTensor.from_memory((4,), [1.0, 0.5, 1 / 3, -0.0])
        line = emit_tensor(t, "x")
        assert line == f"x = [ 1 ; 0.5 ; {1/3!r} ; -0 ];"

    def test_statement_parses_with_correct_cat_arity(self):
        rng = random.Random(1)
        for _ in range(10):
            shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            t = rand_dense(rng, shape)
            name, tree = parse_matlab_statement(emit_tensor(t, "T"))
            assert name == "T"
            if len(shape) >= 3:
                assert cat_arity(tree) == shape[-1]

    def test_values_survive_the_grammar(self):
        t = iota_tensor((2, 3))
        _, tree = parse_matlab_statement(emit_tensor(t, "M"))
        # rows indexed by the first dimension
        assert tree == [[float(t[i, j]) for j in range(3)] for i in range(2)]


def cells_by_index(tree, shape):
    """The cells of a parsed literal keyed by zero-based multi-index."""
    if len(shape) == 1:
        return {(i,): row[0] for i, row in enumerate(tree)}
    if len(shape) == 2:
        return {(i, j): v for i, row in enumerate(tree) for j, v in enumerate(row)}
    _, _, parts = tree
    return {
        index + (k,): v
        for k, part in enumerate(parts)
        for index, v in cells_by_index(part, shape[:-1]).items()
    }


# Values whose text is easy to get wrong: signed zeros, integral floats too
# large for an int64, the smallest subnormal, ints beyond 64 bits.
SPECIAL = {
    "float64": [-0.0, 0.0, -7.0, 1e300, -5e-324, 1 / 3, 2.0**53 + 2],
    "int64": [0, -1, 2**63, -(2**70)],
}


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["float64", "int64"])
    def test_literals_parse_back_bit_for_bit(self, kind):
        rng = random.Random(5)
        number = float if kind == "float64" else int
        for _ in range(150):
            shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            t = rand_operand(rng, shape, kind)
            values = [
                rng.choice(SPECIAL[kind]) if rng.random() < 0.3 else v
                for v in read_box(t).values()
            ]
            generate(t, iter(values).__next__)
            _, tree = parse_matlab_statement(emit_tensor(t, "T"), number=str)
            cells = cells_by_index(tree, shape)
            want = read_box(t)
            assert sorted(cells) == sorted(zero_indices(shape))
            for index, text in cells.items():
                got = number(text)
                assert type(got) is type(want[index])
                if kind == "float64":
                    assert got.hex() == want[index].hex(), (index, text)
                else:
                    assert got == want[index], (index, text)


class TestMatlabScript:
    def test_commands_and_order(self):
        s = MatlabScript()
        s.add_command("plot(A(:) - Aref(:));")
        s.add_command("")
        s.add_command("disp('done');")
        assert s.lines == ["plot(A(:) - Aref(:));", "", "disp('done');"]

    def test_tensor_plus_command(self, tmp_path):
        s = MatlabScript()
        s.add_tensor(iota_tensor((2, 2)), "A")
        s.add_command("plot(A(:) - Aref(:));")
        path = tmp_path / "check.m"
        write_script(s, path)
        content = path.read_text()
        assert content.count("\n") == 2
        assert content.endswith("plot(A(:) - Aref(:));\n")

    def test_empty_script(self, tmp_path):
        path = tmp_path / "empty.m"
        write_script(MatlabScript(), path)
        assert path.read_text() == ""

    def test_rewrite_is_deterministic(self, tmp_path):
        rng = random.Random(2)
        t = rand_dense(rng, (2, 3, 2))
        path = tmp_path / "out.m"
        for _ in range(2):
            s = MatlabScript()
            s.add_tensor(t, "B")
            s.write(path)
        first = path.read_bytes()
        s = MatlabScript()
        s.add_tensor(t, "B")
        s.write(path)
        assert path.read_bytes() == first
