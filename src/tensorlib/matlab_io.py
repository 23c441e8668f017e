"""MATLAB script emission for external verification of tensor values.

``emit_tensor`` renders a tensor, view or cursor as one executable MATLAB
assignment.  The literal is built from one read of the operand in
iteration order (dimension 1 fastest), so tensors holding equal values
emit identical text no matter their layout or offsets (MATLAB has neither,
so offsets are dropped).  Order 1 becomes a column vector, order 2 a
row-per-first-index matrix literal, and higher orders nest via
``cat(p, ...)`` over the last index, which makes ``name(i1, .., ip)`` in
MATLAB equal the zero-based element ``(i1-1, .., ip-1)`` here.

Statements are emitted one per line (no ``...`` continuations); integral
values print without a decimal point (``-0.0`` as ``-0``), all others with
the shortest decimal that round-trips.
"""

from __future__ import annotations

import re
from math import copysign, prod
from typing import List

from .elementwise import _in_order

__all__ = ["MatlabScript", "emit_tensor", "format_value", "write_script"]


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float) and v.is_integer():
        # int() drops the sign of -0.0, which MATLAB keeps (1 / -0 is -Inf).
        return str(int(v)) if v or copysign(1.0, v) > 0 else "-0"
    return repr(v)


# An ASCII letter, then letters, digits or underscores, at most
# ``namelengthmax`` (63) characters in all.
_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]{0,62}")


def emit_tensor(t, name: str) -> str:
    """Single MATLAB statement assigning the values of ``t``, a tensor,
    view or cursor, to ``name``.

    Raises ``ValueError`` unless ``name`` is a MATLAB identifier: an ASCII
    letter, then ASCII letters, digits or underscores, at most 63 in all.
    """
    if not _IDENTIFIER.fullmatch(name):
        raise ValueError(
            f"invalid MATLAB name {name!r}: need an ASCII letter, then letters, "
            "digits or underscores, at most 63 characters"
        )
    it, values = _in_order(t)
    shape = it.extents
    n = shape[0]

    def literal(block: List[str], dims: int) -> str:
        """``block``, the elements of one index box of the first ``dims``
        dimensions in iteration order, as a literal."""
        if dims <= 2:
            rows = [" ".join(block[i::n]) for i in range(n)]
            return "[ " + " ; ".join(rows) + " ]"
        size = prod(shape[: dims - 1])
        slices = [
            literal(block[k * size : (k + 1) * size], dims - 1)
            for k in range(shape[dims - 1])
        ]
        return f"cat({dims}, " + ", ".join(slices) + ")"

    return f"{name} = {literal(list(map(format_value, values)), len(shape))};"


class MatlabScript:
    """Ordered collection of MATLAB statements, buildable line by line."""

    def __init__(self):
        self.lines: List[str] = []

    def add_tensor(self, t, name: str) -> str:
        """Append (and return) the assignment statement for ``t``."""
        line = emit_tensor(t, name)
        self.lines.append(line)
        return line

    def add_command(self, text: str) -> None:
        """Append a raw MATLAB command verbatim."""
        self.lines.append(text)

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)

    def write(self, path) -> None:
        write_script(self, path)


def write_script(script: MatlabScript, path) -> None:
    """Write all lines, newline-terminated, ASCII-encoded."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(script.text())
    except OSError as exc:
        raise OSError(f"cannot write MATLAB script to {path}: {exc}") from exc
