"""Every module of the package uses each name it imports, and imports only numpy and the
stdlib, checked with the stdlib ast."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "uavgrid"


def _unused_imports(source: str) -> list[str]:
    """The names source imports and never reads; a name listed in __all__ counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # import a.b binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    assert _unused_imports("import operator\nimport math\nx = math.pi\n") == ["operator (line 1)"]
    assert _unused_imports("from .a import b, c as d\n__all__ = ['b']\n") == ["d (line 1)"]
    assert _unused_imports("import numpy.random\nnumpy.random.seed\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def _third_party_imports(source: str) -> set[str]:
    """The top-level modules source imports that are neither the stdlib nor the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names)


def test_the_check_finds_a_third_party_import():
    source = ("from __future__ import annotations\nimport math, numpy as np\n"
              "from .los import Placement\ndef f():\n    from scipy.integrate import quad\n")
    assert _third_party_imports(source) == {"numpy", "scipy"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_needs_numpy_and_the_stdlib_only(path):
    """numpy is the package's one runtime dependency; scipy serves only the tests."""
    assert _third_party_imports(path.read_text()) <= {"numpy"}
