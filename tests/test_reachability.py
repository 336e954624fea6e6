"""The library holds what the commands, the library itself or the
benchmark reach: every function, method and class defined under
src/clusterseeds/ is named somewhere in src/ or perfbench/ outside its
own definition.  Helpers that only tests need belong in tests/oracles.py.

A reference is a loaded name or attribute with the definition's name,
or a name string in perfbench's WRAPS, which the traced benchmark looks
up with getattr.  Imports, __all__ and clusterseeds/__init__.py export
names but reach nothing, so they do not count; dunder methods are called
by Python itself and are exempt.  Names are matched without their
module, so two definitions that share a name reach each other."""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clusterseeds"
PERFBENCH = ROOT / "perfbench"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _wrapped_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {attribute for _, attribute, *_ in layers.WRAPS}


def _is_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _scan(tree: ast.AST, where: str, definitions: list, references: dict) -> None:
    """Add tree's definitions as (name, where, line, node) and its
    references as name -> the definition nodes enclosing each."""

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and _is_all(node):
            return
        if isinstance(node, DEFINITIONS):
            definitions.append((node.name, where, node.lineno, node))
            enclosing = enclosing | {node}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            references[node.id].append(enclosing)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            references[node.attr].append(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())


def unreached(library: dict[str, str], others: list[str], names: set[str]) -> list[str]:
    """Every definition in the library sources (file name -> text) that
    neither they nor the other sources nor the name strings reach, as
    file:line name."""
    definitions: list = []
    references: dict = defaultdict(list)
    for where, text in library.items():
        _scan(ast.parse(text), where, definitions, references)
    for text in others:
        _scan(ast.parse(text), "", [], references)
    for name in names:
        references[name].append(frozenset())
    return [
        f"{where}:{line} {name}"
        for name, where, line, node in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and all(node in enclosing for enclosing in references[name])
    ]


def test_every_library_definition_is_reached():
    library = {
        path.name: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    perfbench = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert unreached(library, perfbench, _wrapped_names()) == []


def test_a_self_reference_or_an_export_reaches_nothing():
    source = (
        "__all__ = ['loop', 'used', 'Box', 'Spare']\n"
        "from os import sep as loop\n"
        "def loop(n):\n    return loop(n - 1) if n else 0\n"
        "def used():\n    def inner():\n        return 1\n    return inner()\n"
        "class Box:\n    def __len__(self):\n        return 0\n"
        "    def size(self):\n        return len(self)\n"
        "class Spare:\n    pass\n"
    )
    other = "used()\nBox().size\n"
    assert unreached({"m.py": source}, [other], {"Spare"}) == ["m.py:3 loop"]
