"""The package source stays numpy-only: no module of src/bosehub imports
scipy, which is only a test dependency. It also holds only code the program
reaches: every function and method is referenced from src/, apart from an
allow-list whose every entry gives its reason."""
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


# --- every src/ function is reached from src/ ---------------------------------

# names nothing in src/ references, each kept for a stated reason
ALLOWED_UNREFERENCED = {
    "_kernels.backend": "perfbench/run.py records it (ROADMAP item 1)",
    "basis.translation_orbits": "perfbench wraps it (ROADMAP item 1)",
    "circuit.sample": "perfbench wraps it (ROADMAP item 1)",
    "circuit.complex_weight_of": "perfbench wraps it (ROADMAP item 1)",
    "readout.ConfusionMatrix.invert":
        "the scalar oracle the array inverse is tested against",
    "neural.from_json":
        "reads the network checkpoint that train writes (ROADMAP item 8)",
}


def definitions(module: str, tree: ast.Module) -> dict[str, str]:
    """'module.function' and 'module.Class.method' -> bare name, for every
    top-level function and every method that is not a dunder."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[f"{module}.{node.name}"] = node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    found[f"{module}.{node.name}.{item.name}"] = item.name
    return found


class _References(ast.NodeVisitor):
    """The names one module reads. A bare name resolves to the module it
    was imported from, else to this module; ``alias.name`` on an imported
    sibling module resolves to that module. Any other attribute could be a
    method of any class, so it is kept by its bare name."""

    def __init__(self, module: str, modules: set[str]):
        self.module = module
        self.modules = modules
        self.aliases: dict[str, str] = {}
        self.imported: dict[str, str] = {}
        self.names: set[str] = set()
        self.attributes: set[str] = set()

    def visit_ImportFrom(self, node):
        if node.level != 1:
            return
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module is None and alias.name in self.modules:
                self.aliases[local] = alias.name
            elif node.module is not None:
                self.imported[local] = f"{node.module}.{alias.name}"

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(self.imported.get(node.id,
                                             f"{self.module}.{node.id}"))

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name)
                and node.value.id in self.aliases):
            self.names.add(f"{self.aliases[node.value.id]}.{node.attr}")
        else:
            self.attributes.add(node.attr)
        self.generic_visit(node)


def unreferenced(sources: dict[str, str]) -> set[str]:
    """Functions and methods of ``sources`` (module -> text) that no module
    of ``sources`` references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined, names, attributes = {}, set(), set()
    for module, tree in trees.items():
        defined.update(definitions(module, tree))
        refs = _References(module, set(trees))
        refs.visit(tree)
        names |= refs.names
        attributes |= refs.attributes
    return {qualname for qualname, name in defined.items()
            if qualname not in names
            and not (qualname.count(".") == 2 and name in attributes)}


@pytest.fixture(scope="module")
def unreached():
    return unreferenced({path.stem: path.read_text() for path in SOURCES})


def test_every_function_is_reached_from_src(unreached):
    assert unreached - set(ALLOWED_UNREFERENCED) == set()


def test_allow_list_is_not_stale(unreached):
    # an entry that src/ now references, or that is gone, must leave the list
    assert set(ALLOWED_UNREFERENCED) - unreached == set()


def test_the_audit_resolves_names():
    sources = {
        "a": ('"""from_json and b.helper are only mentioned here."""\n'
              "from . import b as bee\n"
              "from .b import Box\n"
              "def from_json():\n    return bee.load(Box().size)\n"
              "def main():\n    return from_json()\n"),
        "b": ("def from_json():\n    pass\n"
              "def load(x):\n    return x\n"
              "def helper():\n    pass\n"
              "class Box:\n"
              "    def size(self):\n        return 1\n"
              "    def unused(self):\n        return 2\n"),
    }
    # a.from_json does not reach b.from_json; the docstring reaches nothing
    assert unreferenced(sources) == {"a.main", "b.from_json", "b.helper",
                                     "b.Box.unused"}
