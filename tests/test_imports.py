"""The package source stays numpy-only: no module of src/bosehub imports
scipy, which is only a test dependency."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bosehub")
                 .glob("*.py"))


def imported_modules(source: str) -> set[str]:
    """Top-level package of every module an import statement names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_sources_found():
    assert "cli.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_scipy_import(path):
    assert "scipy" not in imported_modules(path.read_text())


def test_the_guard_sees_every_import_form():
    source = ("import os\nimport scipy.sparse as sp\n"
              "def f():\n    from scipy.linalg import eigh\n"
              "from . import basis\n")
    assert imported_modules(source) == {"os", "scipy"}
