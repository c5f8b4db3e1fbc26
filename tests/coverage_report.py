"""Lines of src/diagwalks that the tier-1 suite never runs.

Runs the tier-1 tests in this process under a line tracer built from the
standard library alone (`sys.settrace`), which follows only code compiled
from src/diagwalks and stops following a code object once every line it
holds has run. A code line is a line that some code object of a module
names in `co_lines()`; the report prints each one that never ran. It
exits 1 when tier-1 fails, when an unrun line is not in ALLOWED, or when
an ALLOWED entry no longer names an unrun line, so the list stays exact.

    python tests/coverage_report.py [extra pytest arguments]

Child processes the tests start are not traced, so a line that only a
child runs counts as unrun.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diagwalks"

# tests that bound their own wall time; the tracer slows them past it
DESELECTED = [
    "tests/test_field.py::test_modulus_search_past_the_field_cap_is_fast",
]

# (module, name of a code object holding the line, the stripped line) ->
# why tier-1 never runs it
ALLOWED = {
    ("diagonal.py", "<module>", "import numpy as np"):
        "TYPE_CHECKING import: annotations only",
    ("field.py", "<module>", "import numpy as np"):
        "TYPE_CHECKING import: annotations only",
    ("graphs.py", "<module>", "import numpy as np"):
        "TYPE_CHECKING import: annotations only",
    ("verify.py", "<module>", "import numpy as np"):
        "TYPE_CHECKING import: annotations only",
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only as `python -m diagwalks.cli`; the tests call main()",
    ("field.py", "key", "return (self.p, self.m, self.modulus, self.omega_idx)"):
        "read only by the benchmark harness",
    ("field.py", "find_modulus",
     'raise ReducibleModulus(f"no irreducible polynomial found for p={p}, '
     'm={m}")'):
        "unreachable for a prime p: GF(p) has a monic irreducible of every "
        "degree",
}


def code_objects(code):
    """`code` and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from code_objects(const)


def code_lines(code) -> set[int]:
    """The source lines of a code object's instructions; a module's first
    instruction has line 0, which is no source line."""
    return {line for _, _, line in code.co_lines() if line}


def static_lines(path: Path) -> dict[int, set[str]]:
    """Each code line of a module, with the names of the code objects
    holding it."""
    names = defaultdict(set)
    for code in code_objects(compile(path.read_text(), str(path), "exec")):
        for line in code_lines(code):
            names[line].add(code.co_name)
    return names


class Tracer:
    """Records the lines run of every code object from one directory."""

    def __init__(self, directory: Path):
        self.prefix = str(directory) + os.sep
        self.remaining = {}  # code object -> its lines not yet run
        self.lines = {}  # code object from the directory -> its lines

    def call(self, frame, event, arg):
        code = frame.f_code
        remaining = self.remaining.get(code)
        if remaining is None:
            remaining = set()
            if os.path.abspath(code.co_filename).startswith(self.prefix):
                self.lines[code] = code_lines(code)
                remaining = set(self.lines[code])
            self.remaining[code] = remaining
        return self.line if remaining else None

    def line(self, frame, event, arg):
        if event == "line":
            remaining = self.remaining[frame.f_code]
            remaining.discard(frame.f_lineno)
            if not remaining:
                return None
        return self.line

    def run_lines(self) -> dict[str, set[int]]:
        """The lines run, by absolute file name."""
        run = defaultdict(set)
        for code, lines in self.lines.items():
            run[os.path.abspath(code.co_filename)] |= (
                lines - self.remaining[code])
        return run


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest

    tracer = Tracer(PACKAGE)
    sys.settrace(tracer.call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests",
                              *(f"--deselect={test}" for test in DESELECTED),
                              *argv])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"tier-1 failed under the tracer (pytest exit {status})")
        return 1
    run = tracer.run_lines()
    unlisted, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line, names in sorted(static_lines(path).items()):
            if line in run[str(path)]:
                continue
            text = source[line - 1].strip()
            keys = {(path.name, name, text) for name in names} & set(ALLOWED)
            used |= keys
            where = f"{path.relative_to(ROOT)}:{line}: {text}"
            if keys:
                print(f"{where}  [allowed: {ALLOWED[min(keys)]}]")
            else:
                print(f"{where}  [UNRUN, not allowed]")
                unlisted.append(where)
    stale = sorted(set(ALLOWED) - used)
    for key in stale:
        print(f"allowed but not an unrun line: {key}")
    total = sum(len(static_lines(path)) for path in PACKAGE.glob("*.py"))
    print(f"{len(unlisted)} unrun lines not allowed, {len(used)} allowed, "
          f"{len(stale)} stale allowances, of {total} code lines")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
