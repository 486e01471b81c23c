"""Static checks that the library carries no dead names or hand products.

Every module of ``src/woldlab`` other than ``__init__`` reads each name it
imports, and every private top-level function or class is referenced
somewhere in the package. No module other than ``linalg`` writes a
compression ``X.basis.conj().T @ M @ X.basis`` or wraps a
``_basis_times(...)`` lift in ``Subspace(...)``: those go through
``linalg._compression`` and ``linalg._lift``. The checks read the source
with ``ast`` and import nothing.
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


def _is_basis(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "basis"


def _is_basis_adjoint(node: ast.AST) -> bool:
    """``X.basis.conj().T``."""
    return isinstance(node, ast.Attribute) and node.attr == "T" \
        and isinstance(node.value, ast.Call) \
        and isinstance(node.value.func, ast.Attribute) \
        and node.value.func.attr == "conj" and _is_basis(node.value.func.value)


def _is_matmul(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)


def _is_call_of(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == name


def hand_products(modules: dict) -> list:
    """``module:line`` for each compression ``X.basis.conj().T @ M @
    X.basis``, in either grouping, and each ``Subspace(_basis_times(...))``
    a module other than ``linalg`` writes."""
    found = []
    for name, tree in modules.items():
        if name == "linalg.py":
            continue
        for node in ast.walk(tree):
            sandwich = _is_matmul(node) and (
                _is_basis(node.right) and _is_matmul(node.left)
                and _is_basis_adjoint(node.left.left)
                or _is_basis_adjoint(node.left) and _is_matmul(node.right)
                and _is_basis(node.right.right))
            lift = _is_call_of(node, "Subspace") and any(
                _is_call_of(arg, "_basis_times") for arg in node.args)
            if sandwich or lift:
                found.append(f"{name}:{node.lineno}")
    return sorted(found)


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


def test_compressions_and_lifts_are_formed_in_linalg_only():
    assert hand_products(_modules()) == []


def test_the_check_finds_a_hand_compression_and_a_hand_lift():
    source = ast.parse(
        "a = s.basis.conj().T @ m @ s.basis\n"
        "b = s.basis.conj().T @ (m @ s.basis)\n"
        "c = Subspace(_basis_times(h, p.basis))\n"
        "d = _compression(m, s)\n"
        "e = _lift(h, p)\n"
        "f = s.basis.conj().T @ m\n")
    assert hand_products({"mod.py": source}) == [
        "mod.py:1", "mod.py:2", "mod.py:3"]
    assert hand_products({"linalg.py": source}) == []
