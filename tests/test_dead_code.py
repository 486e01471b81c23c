"""Static checks that the library carries no dead names.

Every module of ``src/woldlab`` other than ``__init__`` reads each name it
imports, and every private top-level function or class is referenced
somewhere in the package. The check reads the source with ``ast`` and
imports nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "woldlab"


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree: ast.Module) -> set:
    """The strings of a top-level ``__all__`` list, which re-export."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(modules: dict) -> list:
    """``module: name`` for each imported name its module never reads."""
    found = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        read |= _exported(tree)
        found += [f"{name}:{line}: {bound}"
                  for bound, line in imported.items() if bound not in read]
    return found


def _references(node: ast.AST, target: str) -> int:
    """Names, attributes and imports of ``target`` under ``node``."""
    count = 0
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == target \
                or isinstance(sub, ast.Attribute) and sub.attr == target \
                or isinstance(sub, ast.alias) and sub.name == target:
            count += 1
    return count


def unreferenced_private_definitions(modules: dict) -> list:
    """``module: name`` for each private top-level function or class that
    nothing outside its own body refers to."""
    found = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            target = node.name
            if not target.startswith("_") or target.endswith("__"):
                continue
            total = sum(_references(t, target) for t in modules.values())
            if total == _references(node, target):
                found.append(f"{name}:{node.lineno}: {target}")
    return found


def test_every_imported_name_is_read():
    assert unused_imports(_modules()) == []


def test_every_private_definition_is_referenced():
    assert unreferenced_private_definitions(_modules()) == []


def test_the_checks_find_an_unused_import_and_a_dead_helper():
    source = ast.parse(
        "import os\nimport numpy as np\n\n"
        "def _dead(x):\n    return _dead(np.abs(x))\n\n"
        "def _live():\n    return 1\n\n"
        "def public():\n    return _live()\n")
    modules = {"mod.py": source}
    assert unused_imports(modules) == ["mod.py:1: os"]
    assert unreferenced_private_definitions(modules) == ["mod.py:4: _dead"]
