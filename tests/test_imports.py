"""Every imported name in the library, its tests, its demos and its
benchmark harness is read, and every public name of the library is
referenced in the library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "demos", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
PACKAGE = ROOT / "src" / "edgetensor"
# public names no library module references, each with why it stays
UNREFERENCED_ALLOWED = {
    # the dense oracles every sparse product is checked against
    ("edge_tensor", "mode_k_product_dense"),
    ("edge_tensor", "EdgeFeatureTensor.to_dense"),
    ("sparse_graph", "SparseAdjacency.to_dense"),
    # the benchmark builds its oracle inputs with it
    ("edge_tensor", "EdgeFeatureTensor.from_support_of"),
    # entry points of the benchmark's multi-graph workload, until it calls
    # run_node_classification on LabeledGraph.from_views itself
    ("models", "prepare_multigraph"),
    ("tasks", "run_multigraph_classification"),
}


def unused_imports(source):
    """Names that ``source`` binds by import and never loads.

    A package ``__init__`` re-exports what it imports, so it is not
    scanned; nor are ``__future__`` imports, which bind no name.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in loaded)


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, json as j\nfrom a.b import c, d\nprint(os, d)\n")
    assert unused_imports(source) == [(2, "j"), (3, "c")]


def defined_names(node):
    """Names a module-level statement defines: a function, assignment
    targets, or a class with its methods, properties and annotated fields,
    each as ``Class.member``."""
    if isinstance(node, ast.FunctionDef):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign):
        return [node.target.id]
    if isinstance(node, ast.ClassDef):
        return [node.name] + [
            f"{node.name}.{name}" for member in node.body
            if isinstance(member, (ast.FunctionDef, ast.AnnAssign))
            for name in defined_names(member)]
    return []


def unreferenced_names(sources):
    """(module, name) of each public module-level name or class member
    that no module of ``sources`` (module name -> source) references, by
    name or attribute.

    A member counts as referenced when any attribute or name of that
    spelling is, whatever object it is read from. The package
    ``__init__`` re-exports names without using them, so its references do
    not count; its names and ``cli``'s are the entry points and are not
    checked.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = []
    for module, tree in sorted(trees.items()):
        if module in ("__init__", "cli"):
            continue
        for node in tree.body:
            for name in defined_names(node):
                parts = name.split(".")
                if (not any(part.startswith("_") for part in parts)
                        and parts[-1] not in referenced):
                    unreferenced.append((module, name))
    return unreferenced


def test_every_public_library_name_is_referenced_in_the_library():
    """A name only tests use is not part of the library."""
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert set(unreferenced_names(sources)) == UNREFERENCED_ALLOWED


def test_the_scan_finds_an_unreferenced_name():
    sources = {"__init__": "from .a import lone\n",
               "cli": "from .a import by_cli\n",
               "a": ("LIMIT = 3\n_private = 1\n"
                     "def lone():\n    pass\n"
                     "def by_cli():\n    pass\n"
                     "class Used:\n    pass\n"),
               "b": "from . import a\nprint(a.LIMIT, a.Used)\n"}
    assert unreferenced_names(sources) == [("a", "lone")]


def test_the_scan_finds_an_unreferenced_member():
    sources = {"a": ("class Box:\n"
                     "    size: int\n    tag: str\n    LIMIT = 3\n"
                     "    def grow(self):\n        pass\n"
                     "    @property\n    def area(self):\n        pass\n"
                     "    def _hidden(self):\n        pass\n"
                     "class _Private:\n    def lone(self):\n        pass\n"),
               "b": ("from .a import Box\n"
                     "print(Box(1, 'x').size, Box.grow)\n")}
    assert unreferenced_names(sources) == [("a", "Box.tag"), ("a", "Box.area")]
