"""Shared test helpers: the random instance builders of
:mod:`tensorlib.verify` under short names, exhaustive shape and layout
enumerations, and a minimal MATLAB literal grammar used to validate
emitted scripts."""

from __future__ import annotations

import itertools
from typing import List

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


# -- minimal MATLAB literal grammar ------------------------------------------
#
# statement := NAME '=' expr ';'
# expr      := matrix | 'cat' '(' INT ',' expr (',' expr)* ')'
# matrix    := '[' row (';' row)* ']'
# row       := NUMBER+


class MatlabParseError(ValueError):
    pass


def parse_matlab_statement(text: str):
    """Parse one emitted statement; returns (name, tree) where a tree is
    either a list of rows (each a list of float values) or
    ('cat', dim, [trees])."""
    text = text.strip()
    if not text.endswith(";"):
        raise MatlabParseError("statement must end with ';'")
    head, _, rest = text[:-1].partition("=")
    name = head.strip()
    if not name.isidentifier():
        raise MatlabParseError(f"bad variable name {name!r}")
    tree, pos = _parse_expr(rest.strip(), 0)
    if rest.strip()[pos:].strip():
        raise MatlabParseError("trailing characters after expression")
    return name, tree


def _parse_expr(s: str, pos: int):
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
            part, pos = _parse_expr(s, pos)
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
            rows.append([float(c) for c in cells])
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
