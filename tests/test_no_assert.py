"""No library behaviour may rest on what `python -O` changes: it strips
every `assert` statement and sets `__debug__` to False."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diagwalks"


def _find(kind):
    """`module:line` of every node of the package that `kind` accepts."""
    found = []
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if kind(node)]
    return found


def test_package_has_no_assert_statements():
    found = _find(lambda node: isinstance(node, ast.Assert))
    assert not found, f"bare asserts in the package: {found}"


def test_package_reads_no_debug_flag():
    found = _find(lambda node: isinstance(node, ast.Name)
                  and node.id == "__debug__")
    assert not found, f"reads of __debug__ in the package: {found}"
