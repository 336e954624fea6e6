"""One list of the public API: clusterseeds exports what its modules name
in __all__, and the tests' oracles are not library functions too."""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import clusterseeds
import oracles


def _reexports() -> dict[str, list[str]]:
    """Module -> the names clusterseeds/__init__.py imports from it."""
    tree = ast.parse(Path(clusterseeds.__file__).read_text())
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_exports_are_the_union_of_module_all():
    exported = {
        name
        for name, value in vars(clusterseeds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    union = set()
    for module, names in _reexports().items():
        declared = importlib.import_module(f"clusterseeds.{module}").__all__
        assert sorted(names) == sorted(declared), module
        union |= set(declared)
    assert exported == union


def test_no_oracle_is_defined_in_the_library():
    names = {
        name
        for name, value in vars(oracles).items()
        if inspect.isfunction(value) and value.__module__ == oracles.__name__
    }
    assert {"is_retraction", "enumerate_triangulations", "reference_str"} <= names
    for info in pkgutil.iter_modules(clusterseeds.__path__):
        module = importlib.import_module(f"clusterseeds.{info.name}")
        assert not names & set(vars(module)), info.name
