"""Package modules import each other at module level only.

An import deferred into a function or class body hides a module cycle
or a dependency from the reader; the package's layering keeps every
intra-package import at the top of its module.
"""

import ast
from pathlib import Path

import tesopt

PACKAGE_DIR = Path(tesopt.__file__).parent


def _is_package_import(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "tesopt"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "tesopt" for alias in node.names)
    return False


def _deferred_package_imports(tree: ast.Module) -> list[int]:
    """Lines of package imports inside a function or class body."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted({node.lineno
                   for scope in ast.walk(tree) if isinstance(scope, scopes)
                   for node in ast.walk(scope) if _is_package_import(node)})


def test_no_deferred_package_imports():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    offenders = [f"{path.name}:{line}"
                 for path in modules
                 for line in _deferred_package_imports(ast.parse(path.read_text()))]
    assert not offenders, offenders
