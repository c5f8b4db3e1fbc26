"""The formula path never loads numpy; the oracles and graphs do. The CLI
sets one OpenBLAS thread before numpy can load, and the package alone
does not.

Each snippet runs in a fresh interpreter, because this test process has
numpy loaded already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def last_line_after(code: str, report: str, env_update=None) -> str:
    """The last line printed by code and then report, run in a fresh
    interpreter on this source tree with env_update applied (a None value
    unsets the variable)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    for name, value in (env_update or {}).items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return proc.stdout.splitlines()[-1]


def numpy_loaded_after(code: str) -> bool:
    return last_line_after(
        code, "import sys\nprint('numpy' in sys.modules)") == "True"


def cli_count(*argv: str) -> str:
    return (
        "import diagwalks.cli\n"
        f"rc = diagwalks.cli.main({['count', *argv]!r})\n"
        "if rc:\n"
        "    raise SystemExit(rc)"
    )


FORMULA_PATH = {
    "import": "import diagwalks, diagwalks.cli",
    "system": (
        "from diagwalks import DiagonalSystem\n"
        "s = DiagonalSystem(7, 1, 6)\n"
        "if s.count_nonzero(5, 7) <= 0 or s.count_all(5, 5) <= 0:\n"
        "    raise SystemExit('no count')"
    ),
    "count-formula": cli_count("--p", "7", "--a", "1", "--b", "6",
                               "--alpha", "pow:1", "--s", "5"),
    "count-formula-nonzero": cli_count("--p", "2", "--a", "4", "--b", "5",
                                       "--alpha", "pow:1", "--s", "6",
                                       "--nonzero-only"),
    "count-convolution": cli_count("--p", "2", "--a", "2", "--b", "3",
                                   "--alpha", "pow:3", "--s", "3",
                                   "--nonzero-only", "--method",
                                   "convolution"),
    "isomorphism": (
        "from diagwalks import DiagonalSystem, verify_isomorphism\n"
        "if not verify_isomorphism(DiagonalSystem(2, 2, 3).view):\n"
        "    raise SystemExit('not isomorphic')"
    ),
    "neps-closed-form": (
        "from diagwalks import NepsBasis, neps_complete_walks\n"
        "neps_complete_walks([3, 4], NepsBasis([(1, 1)]), 40, (True, True))"
    ),
}

ORACLES = {
    "brute-force": (
        "from diagwalks import brute_force_count, build_field\n"
        "brute_force_count(build_field(3, 2), 2, 0, 2)"
    ),
    "verify": (
        "import diagwalks.cli\n"
        "diagwalks.cli.main(['verify', '--roster', '3,1,2', '--max-r', '1',"
        " '--neps-instances', '1'])"
    ),
    "walk-count": cli_count("--p", "3", "--a", "1", "--b", "2", "--alpha",
                            "0", "--s", "2", "--nonzero-only", "--method",
                            "walk"),
}


@pytest.mark.parametrize("name", sorted(FORMULA_PATH))
def test_formula_path_never_loads_numpy(name):
    assert not numpy_loaded_after(FORMULA_PATH[name])


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracles_load_numpy(name):
    assert numpy_loaded_after(ORACLES[name])


def test_brute_force_refuses_its_powers_cap_before_numpy_loads():
    # GF(2^20) takes 2^20 - 1 powers, over field.MAX_SUMMANDS
    assert not numpy_loaded_after(
        "from diagwalks import brute_force_distribution, build_field\n"
        "from diagwalks.errors import EnumerationTooLarge\n"
        "try:\n"
        "    brute_force_distribution(build_field(2, 20), 3, 1)\n"
        "except EnumerationTooLarge:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('not refused')")


def blas_threads_after(code: str, preset=None) -> tuple[str, bool]:
    """OPENBLAS_NUM_THREADS ("-" when unset) and whether numpy is loaded
    after code runs in an interpreter started with the variable unset, or
    set to preset."""
    line = last_line_after(
        code, "import os, sys\nprint(os.environ.get('OPENBLAS_NUM_THREADS',"
        " '-'), 'numpy' in sys.modules)", {"OPENBLAS_NUM_THREADS": preset})
    threads, loaded = line.split()
    return threads, loaded == "True"


def test_cli_sets_one_blas_thread_before_numpy_loads():
    assert blas_threads_after("import diagwalks.cli") == ("1", False)


def test_cli_keeps_the_users_blas_threads():
    assert blas_threads_after("import diagwalks.cli", "3") == ("3", False)


def test_library_import_leaves_blas_threads_alone():
    assert blas_threads_after("import diagwalks") == ("-", False)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, ast, dis and tokenize, about 9 ms in
    # every process; the two result records are NamedTuples
    assert last_line_after(
        "import diagwalks.cli",
        "import sys\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    ) == "[]"


def test_verify_never_loads_numpy_ma():
    # np.unique tests for masked arrays, and importing numpy.ma takes about
    # 13 ms; the brute force takes its distinct weights as a Python set
    assert last_line_after(
        "import sys, diagwalks.cli\n"
        "before = sorted({'numpy', 'numpy.ma'} & set(sys.modules))\n"
        "rc = diagwalks.cli.main(['verify', '--roster', '3,1,2', '--max-r',"
        " '2', '--neps-instances', '0'])",
        "print(before, rc, 'numpy' in sys.modules, 'numpy.ma' in sys.modules)"
    ) == "[] 0 True False"
