"""Every resource refusal goes through `errors.admit`, the one cap gate."""

import ast
from pathlib import Path

import pytest

from diagwalks import errors
from diagwalks.errors import CapExceeded, EnumerationTooLarge, admit

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diagwalks"
CAP_ERRORS = {name for name, value in vars(errors).items()
              if isinstance(value, type) and issubclass(value, CapExceeded)}


def _raised_name(node: ast.Raise) -> str | None:
    """The name of the class a `raise` statement raises, when it names one."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None


def test_only_errors_raises_a_cap_refusal():
    assert "EnumerationTooLarge" in CAP_ERRORS and len(CAP_ERRORS) >= 6
    found = []
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    for path in modules:
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and _raised_name(node) in CAP_ERRORS]
    assert not found, f"cap refusals raised outside errors.admit: {found}"


def test_admit_refuses_only_past_the_cap_and_names_it():
    class Template(str):
        """A message template that records whether it was filled in."""
        filled = False

        def format(self, *args):
            Template.filled = True
            return super().format(*args)

    admit(EnumerationTooLarge, 10, 10, "CAP", Template("{} ops"))
    assert not Template.filled  # an admitted need formats nothing
    huge = 10**5000  # its decimal would itself raise ValueError
    with pytest.raises(EnumerationTooLarge) as info:
        admit(EnumerationTooLarge, huge, 10, "CAP", "{} of {} needs {} ops",
              "GF(4)", huge)
    assert str(info.value) == ("GF(4) of <16610-bit integer> needs "
                               "<16610-bit integer> ops, over the cap CAP "
                               "of 10")
