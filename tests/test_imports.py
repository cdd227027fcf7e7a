import ast
from pathlib import Path

import pytest

_SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "boundshift").glob("*.py")
                  if p.name != "__init__.py")


def _unused_imports(source):
    """(line, name) of each name the source imports and never reads, but for
    imports marked # noqa: F401 (a documented re-export)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((alias.lineno, name))
    return unused


def test_unused_imports_are_found():
    source = "import os\nimport re  # noqa: F401\nfrom a import (b,\n    c)\nprint(b)\n"
    assert _unused_imports(source) == [(1, "os"), (4, "c")]


@pytest.mark.parametrize("path", _SOURCES, ids=[p.name for p in _SOURCES])
def test_every_import_is_read(path):
    assert _unused_imports(path.read_text()) == []
