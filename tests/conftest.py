"""Shared test helpers: the random instance builders of
:mod:`tensorlib.verify` under short names, exhaustive shape and layout
enumerations, the same values at four layouts, small far-strided
operands, a kernel corrupter for fault-injection tests, and a minimal
MATLAB literal grammar used to validate emitted scripts."""

from __future__ import annotations

import itertools
from math import prod
from typing import List

from tensorlib import DenseTensor, Range, TensorView, copy
from tensorlib.verify import _rand_layout as rand_layout
from tensorlib.verify import _rand_offsets as rand_offsets
from tensorlib.verify import _rand_operand as rand_operand
from tensorlib.verify import _rand_tensor as rand_dense
from tensorlib.verify import read_box


def all_shapes(p: int, max_extent: int):
    """Every shape of order p with extents in 1..max_extent."""
    return itertools.product(*(range(1, max_extent + 1) for _ in range(p)))


def all_layouts(p: int):
    return itertools.permutations(range(1, p + 1))


def four_layouts(shape, values):
    """The same values at first order, at last order, as a view stepping
    by 2 through a first-order parent, and as a view of a view: every
    other element of a window shifted by one inside a last-order root."""
    p = len(shape)
    first = DenseTensor.from_memory(shape, values)
    last = DenseTensor(shape, layout=tuple(range(p, 0, -1)))
    stepped = DenseTensor(tuple(2 * n for n in shape)).view(
        [Range(0, 2, 2 * n - 2) for n in shape])
    root = DenseTensor(tuple(2 * n + 3 for n in shape), layout=tuple(range(p, 0, -1)))
    window = root.view([Range(1, 1, 2 * n + 1) for n in shape])
    nested = TensorView(window, [Range(1, 2, 2 * n - 1) for n in shape])
    for t in (last, stepped, nested):
        copy(first, t)
    return first, last, stepped, nested


# Operands with one dimension at least 4096 slots apart (the tile reader's
# threshold), yet of 12288 elements: (64, 64, 3) at first order, (3, 64, 64)
# at last order, and a view of each stepping by 2 through its near end
# (dimension 1, or 3), whose far stride is 8192.
FAR = {
    "first": ((64, 64, 3), (1, 2, 3), 0),
    "last": ((3, 64, 64), (3, 2, 1), 2),
}
FAR_NAMES = ("first", "first_view", "last", "last_view")


def draw_values(rng, kind: str, count: int) -> list:
    """``count`` ints in [-9, 9], or floats whose magnitudes differ so
    widely that any change of summation order shows in the last bits."""
    if kind == "int64":
        return [rng.randint(-9, 9) for _ in range(count)]
    return [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(count)]


def far_strided(rng, name: str, kind: str):
    """``(operand, values)``: the ``FAR_NAMES`` operand ``name`` holding
    random ``kind`` values, listed in ``zero_indices`` order; a view's
    parent holds other random values around it."""
    shape, layout, near = FAR[name.split("_")[0]]
    values = draw_values(rng, kind, prod(shape))
    if name.endswith("_view"):
        outer = [2 * n if d == near else n for d, n in enumerate(shape)]
        parent = DenseTensor.from_memory(
            tuple(outer), draw_values(rng, kind, prod(outer)), layout=layout)
        x = parent.view([Range(0, 2, n - 2) if d == near else None
                         for d, n in enumerate(outer)])
    else:
        x = DenseTensor(shape, layout=layout)
    copy(DenseTensor.from_memory(shape, values), x)
    return x, values


def corrupt_call(monkeypatch, module, name, corrupt, at=1):
    """Make ``module.name`` give its caller a wrong result on call ``at``:
    ``corrupt(out, *args)`` damages the output after the real call, or
    returns a wrong value to give instead (anything but ``None``)."""
    original = getattr(module, name)
    calls = [0]

    def wrong(*args, **kwargs):
        out = original(*args, **kwargs)
        calls[0] += 1
        if calls[0] == at:
            instead = corrupt(out, *args)
            if instead is not None:
                return instead
        return out

    monkeypatch.setattr(module, name, wrong)


def bump_first(t):
    """Add 1 to the element at zero-based multi-index (0, ..., 0)."""
    key = tuple(t.offsets)
    t[key] = t[key] + 1


# -- minimal MATLAB literal grammar ------------------------------------------
#
# statement := NAME '=' expr ';'
# expr      := matrix | 'cat' '(' INT ',' expr (',' expr)* ')'
# matrix    := '[' row (';' row)* ']'
# row       := NUMBER+


class MatlabParseError(ValueError):
    pass


def parse_matlab_statement(text: str, number=float):
    """Parse one emitted statement; returns (name, tree) where a tree is
    either a list of rows (each a list of cells, read by ``number``) or
    ('cat', dim, [trees])."""
    text = text.strip()
    if not text.endswith(";"):
        raise MatlabParseError("statement must end with ';'")
    head, _, rest = text[:-1].partition("=")
    name = head.strip()
    if not name.isidentifier():
        raise MatlabParseError(f"bad variable name {name!r}")
    tree, pos = _parse_expr(rest.strip(), 0, number)
    if rest.strip()[pos:].strip():
        raise MatlabParseError("trailing characters after expression")
    return name, tree


def _parse_expr(s: str, pos: int, number):
    while pos < len(s) and s[pos] == " ":
        pos += 1
    if s.startswith("cat(", pos):
        pos += 4
        close = s.index(",", pos)
        dim = int(s[pos:close])
        pos = close
        parts: List = []
        while s[pos] == ",":
            pos += 1
            part, pos = _parse_expr(s, pos, number)
            parts.append(part)
            while pos < len(s) and s[pos] == " ":
                pos += 1
        if pos >= len(s) or s[pos] != ")":
            raise MatlabParseError("unterminated cat(...)")
        return ("cat", dim, parts), pos + 1
    if pos < len(s) and s[pos] == "[":
        end = _matching_bracket(s, pos)
        inner = s[pos + 1 : end]
        rows = []
        for row_text in inner.split(";"):
            cells = row_text.split()
            if not cells:
                raise MatlabParseError("empty matrix row")
            rows.append([number(c) for c in cells])
        if len({len(r) for r in rows}) != 1:
            raise MatlabParseError("ragged matrix rows")
        return rows, end + 1
    raise MatlabParseError(f"cannot parse expression at {s[pos:pos+20]!r}")


def _matching_bracket(s: str, start: int) -> int:
    depth = 0
    for k in range(start, len(s)):
        if s[k] == "[":
            depth += 1
        elif s[k] == "]":
            depth -= 1
            if depth == 0:
                return k
    raise MatlabParseError("unbalanced brackets")


def cat_arity(tree) -> int:
    if isinstance(tree, tuple) and tree[0] == "cat":
        return len(tree[2])
    raise MatlabParseError("not a cat expression")
