"""The contraction engine never re-enters the door: a call checks each
operand once where it enters (``elementwise._mit``), so products with no
bound pair make no ``check_reach`` call for tensors and views and one per
raw cursor."""

import pytest

from tensorlib import ContractionSpec, DenseTensor, Range, outer_product, ttt
from tensorlib import contraction, elementwise, iterators


def operand(kind, shape, layout):
    if kind == "view":
        root = DenseTensor(tuple(n + 2 for n in shape), layout=layout)
        root.data = [k / 4 for k in range(root.size)]
        return root.view([Range(1, 1, n) for n in shape])
    t = DenseTensor(shape, layout=layout)
    t.data = [k / 3 - 1 for k in range(t.size)]
    return t.miter() if kind == "cursor" else t


CALLS = {
    "outer_product": outer_product,
    "ttt_q0": lambda a, b: ttt(a, b, ContractionSpec(0, (2, 1), (1,))),
}


@pytest.fixture
def checked(monkeypatch):
    calls = []
    check = iterators.check_reach

    def spy(c):
        calls.append(c)
        check(c)

    for module in (iterators, elementwise, contraction):
        monkeypatch.setattr(module, "check_reach", spy, raising=False)
    return calls


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("kinds", [("tensor", "tensor"), ("view", "tensor"),
                                   ("tensor", "view"), ("view", "view"),
                                   ("cursor", "tensor"), ("view", "cursor"),
                                   ("cursor", "cursor")])
@pytest.mark.parametrize("layout", [(1, 2), (2, 1)])
def test_no_bound_pair_checks_raw_cursors_only(checked, name, kinds, layout):
    a = operand(kinds[0], (3, 4), layout)
    b = operand(kinds[1], (2,), (1,))
    out = CALLS[name](a, b)
    assert out.shape == ((3, 4, 2) if name == "outer_product" else (4, 3, 2))
    assert len(checked) == kinds.count("cursor")
