"""The package has no runtime dependencies: every import in
``src/tensorlib`` is relative or names a standard-library module."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensorlib"


def imported_modules(path):
    """``(line, top-level module)`` of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_relative_or_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [
        f"{path.name}:{line}: {name}"
        for path in files
        for line, name in imported_modules(path)
        if name not in sys.stdlib_module_names
    ]
    assert outside == []
