"""No module of the package imports a sibling inside a function body: each
module's imports of the package sit at its top, so the import graph is
read from the module heads alone and has no cycle hidden in a call."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diagwalks"


def _sibling_imports_in_functions():
    """`module:line` of every relative or `diagwalks` import that sits in
    the body of a function of the package."""
    found = []
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if not node.level else None
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if names is None or any(name.split(".")[0] == "diagwalks"
                                        for name in names):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_function_imports_a_sibling_module():
    found = _sibling_imports_in_functions()
    assert not found, f"sibling imports inside functions: {found}"
