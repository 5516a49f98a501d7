"""Package modules import each other at module level only and use all they define.

An import deferred into a function or class body hides a module cycle
or a dependency from the reader; the package's layering keeps every
intra-package import at the top of its module.  A definition no package
code names serves only the tests, and belongs with them.
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


UNREFERENCED_ALLOWED = {
    "generate_box_mesh",            # model builder for box and bar geometries
    "electrodes_from_face_sets",    # model builder for electrodes on given faces
    "make_program",                 # the generic LP entry point of lp
    "solve_lp",                     # the one-LP entry point of lp, wrapped by bench/tracer.py
    # the lattice solvers, which search looks up as getattr(optimizers, "solve_" + method)
    "solve_l1l1",
    "solve_l1l2",
    "solve_tls",
}


def test_every_definition_is_referenced():
    nodes = [node for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py"
             for node in ast.walk(ast.parse(path.read_text()))]
    defined = {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("__")}
    named = {node.id if isinstance(node, ast.Name) else node.attr for node in nodes
             if isinstance(node, (ast.Name, ast.Attribute))}
    # a name in only one of the two sets is unreferenced or wrongly allowed
    assert sorted((defined - named) ^ UNREFERENCED_ALLOWED) == []
