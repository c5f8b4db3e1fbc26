"""The command-line contract: one row per case, each a command line, its
exit code and exactly one expectation.

Two callers read the rows. `tests/test_contract.py` runs every row in
process through `diagwalks.cli.main`, as part of the test suite.
`python tests/contract.py` runs every row in a fresh `python -O -m
diagwalks.cli` child, under an address-space limit of 1 GiB set in the
child and the row's wall budget, prints one line per row with its time,
and exits 1 if any row fails.

A row's fields:
- `args`: the command line after `diagwalks`, split as a POSIX shell
  splits it (`shlex.split`);
- `code`: the exit code;
- exactly one expectation:
  - `result`: fields of the JSON record's "result", each equal to the
    value printed; a field whose expected value is None must be absent;
  - `error`: the error class of the JSON record on stderr, and a regular
    expression its message must match (`re.search`), or None;
  - `last`: the start of the last line of stdout (`verify`);
- `budget`: wall seconds, for a case that must end in time.

To add a case, append a `Row` to `ROWS` with a name unique in the table.

`check` returns a failure as a string and never asserts, so the runner
holds under `python -O` as well.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ADDRESS_SPACE_BYTES = 1 << 30
# a row without a budget of its own, so that a hung child still ends
DEFAULT_BUDGET = 120.0
# 10^400, a length no cap admits
HUGE = "1" + "0" * 400


class Row(NamedTuple):
    name: str
    args: str
    code: int = 0
    result: dict | None = None
    error: tuple[str, str | None] | None = None
    last: str | None = None
    budget: float | None = None

    @property
    def argv(self) -> list[str]:
        return shlex.split(self.args)


def count(name, args, value, budget=None):
    """A count command's row: exit 0 and the count printed."""
    return Row(name, args, result={"count": value}, budget=budget)


def agree(name, args):
    """A walks command's row: the formula equals the matrix power."""
    return Row(name, args, result={"agree": True})


def refused(name, args, error, pattern=None, budget=None):
    """A parameter error's row: exit 2 and the error named on stderr."""
    return Row(name, args, 2, error=(error, pattern), budget=budget)


ROWS = [
    # verify
    Row("verify-small-roster", 'verify --roster "3,1,2;2,2,3" --max-r 2',
        last="ALL PASS in "),
    Row("verify-gf343", "verify --roster 7,1,3 --max-r 3",
        last="ALL PASS in ", budget=60),
    refused("verify-negative-max-r", "verify --max-r -1", "BadParameters",
            "must be >= 0"),
    # counts by formula
    count("formula-gf2-20", "count --p 2 --a 4 --b 5 --alpha pow:1 "
          "--s 6 --nonzero-only", "188204479107145598027193001200"),
    count("formula-power-literal", "count --p 2 --a 2 --b 3 --alpha pow:3 "
          "--s 3 --nonzero-only", "4116"),
    # (97,1,3): the Hamming triple with the largest half tables under the
    # field cap, 9,409 + 97 entries, against the convolution
    *(count(f"half-tables-gf97-3-{method}", "count --p 97 --a 1 --b 3 "
            f"--alpha pow:1 --s 2 --nonzero-only --method {method}",
            "20085122", budget=20)
      for method in ("formula", "convolution")),
    # GF(3^6): the field's sum through the digit codec on six slots, in
    # the formula's solve and the convolution's inner loop
    *(count(f"codec-sum-gf3-6-{method}", "count --p 3 --a 3 --b 2 "
            f"--alpha pow:1 --s 3 --nonzero-only --method {method}", "411600")
      for method in ("formula", "convolution")),
    # counts by the oracles
    *(count(f"non-primitive-{method}", "count --p 3 --a 1 --b 4 --alpha 0 "
            f"--s 2 --nonzero-only --method {method}", "800")
      for method in ("brute", "convolution", "walk")),
    *(count(f"m-s-{method}", "count --p 7 --a 1 --b 2 --alpha pow:1 --s 3 "
            f"--method {method}", "2016")
      for method in ("formula", "convolution", "brute")),
    count("convolution-coefficient-literal", "count --p 2 --a 2 --b 3 "
          "--alpha 0,0,0,1,0,0 --s 3 --nonzero-only --method convolution",
          "4116"),
    count("convolution-gf2-20", "count --p 2 --a 4 --b 5 --alpha pow:0 --s 3 "
          "--nonzero-only --method convolution", "1068541673660131",
          budget=20),
    count("brute-gf64", "count --p 2 --a 2 --b 3 --alpha pow:3 --s 3 "
          "--nonzero-only --method brute", "4116"),
    count("brute-gf64-s4-nonzero", "count --p 2 --a 2 --b 3 --alpha 0 --s 4 "
          "--nonzero-only --method brute", "540225", budget=20),
    count("brute-gf64-s4-all", "count --p 2 --a 2 --b 3 --alpha 0 --s 4 "
          "--method brute", "567568", budget=20),
    count("brute-gf343", "count --p 7 --a 1 --b 3 --alpha pow:1 --s 3 "
          "--nonzero-only --method brute", "205770"),
    count("walk-gf625", "count --p 5 --a 1 --b 4 --alpha 0 --s 3 "
          "--nonzero-only --method walk", "2847312"),
    # walks
    agree("neps-formula-vs-power", "walks --neps 3,4 --basis 11 --from 0 "
          "--to 0 --length 4"),
    agree("neps-past-2-53", "walks --neps 3,4 --basis 11 --from 0 --to 0 "
          "--length 40"),
    agree("neps-spectral-kernel", 'walks --neps 3,4 --basis "10;01;11" '
          "--from 0 --to 5 --length 40"),
    agree("gp-formula-vs-power", "walks --gp --p 3 --m 2 --k 2 --from 0 "
          "--to pow:0 --length 3"),
    agree("gp-spectral-kernel", "walks --gp --p 2 --m 6 --k 7 --from 0 "
          "--to pow:1 --length 20"),
    # Gamma(10, 81) is 9 copies of K_9, not H(4, 3): only the matrix power
    Row("gp-non-primitive-power-only", "walks --gp --p 3 --m 4 --k 10 "
        "--from 0 --to pow:0 --length 2",
        result={"matrix_power": "7", "formula": None}),
    # parameter errors
    *(refused(f"p-not-prime-{p}", f"count --p {p} --a 1 --b 2 --alpha 0 "
              "--s 1", "NotPrime") for p in ("1", "-3", "0")),
    # a count admits p in `divisibility` too; a GP graph only in check_field
    refused("gp-p-not-prime-1", "walks --gp --p 1 --m 2 --k 1 --from 0 "
            "--to 0 --length 1", "NotPrime", "^p=1 is not prime$"),
    *(refused(f"negative-length-{method}", "count --p 3 --a 1 --b 2 "
              f"--alpha 0 --s -1 --nonzero-only --method {method}",
              "BadParameters", "=-1 must be >= 0$")
      for method in ("formula", "brute", "convolution", "walk")),
    *(refused(f"gp-k-{k}", f"walks --gp --p 3 --m 2 --k {k} --from 0 --to 0 "
              "--length 1", "KDoesNotDivide", f"^k={k} ") for k in ("0", "-2")),
    refused("neps-needs-basis", "walks --neps 3,4 --from 0 --to 5 --length 2",
            "DiagwalksError", "--neps requires --basis"),
    refused("gp-needs-p-m-k", "walks --gp --from 0 --to 1 --length 2",
            "DiagwalksError", "--gp requires --p, --m, --k"),
    refused("neps-negative-length", "walks --neps 3,4 --basis 11 --from 0 "
            "--to 5 --length -1", "BadParameters", "r=-1 must be >= 0"),
    refused("walks-needs-neps-or-gp", "walks --from 0 --to 0 --length 1",
            "DiagwalksError", "one of --neps or --gp is required"),
    refused("neps-empty-sizes", 'walks --neps "" --basis 1 --from 0 --to 0 '
            "--length 1", "BadParameters", "^--neps ''"),
    refused("neps-empty-basis", 'walks --neps 3 --basis "" --from 0 --to 1 '
            "--length 2", "BadParameters",
            "^basis tuples must have at least one entry$"),
    # caps, each refused before its work
    refused("field-order-cap", "count --p 3 --a 1000 --b 2 --alpha 0 --s 1",
            "FieldTooLarge", budget=20),
    refused("field-cap-before-primality", "count --p 1000000000000000003 "
            "--a 1 --b 2 --alpha 0 --s 1 --method convolution",
            "FieldTooLarge", budget=20),
    refused("brute-powers-cap", "count --p 2 --a 4 --b 5 --alpha 0 --s 1 "
            "--nonzero-only --method brute", "EnumerationTooLarge",
            budget=20),
    refused("convolution-ops-cap", "count --p 7 --a 1 --b 6 --alpha 0 --s 6 "
            "--nonzero-only --method convolution", "EnumerationTooLarge"),
    refused("neps-product-cap", "walks --neps 65,65 --basis 11 --from 0 "
            "--to 0 --length 1", "ProductTooLarge"),
    refused("count-all-work-cap", "count --p 3 --a 1 --b 2 --alpha 0 "
            "--s 330788", "NepsWalkTooLarge", "MAX_NEPS_OPS", budget=5),
    # lengths of 401 digits: each overflowed a float before its cap
    refused("convolution-huge-s", "count --p 3 --a 1 --b 2 --alpha 0 "
            f"--s {HUGE} --nonzero-only --method convolution",
            "EnumerationTooLarge", "MAX_CONVOLUTION_OPS", budget=20),
    refused("neps-walks-huge-length", f"walks --neps 3 --basis 1 --from 0 "
            f"--to 1 --length {HUGE}", "WalkCacheTooLarge", "MAX_WALK_BYTES",
            budget=20),
    refused("gp-walks-huge-length", "walks --gp --p 3 --m 2 --k 2 --from 0 "
            f"--to pow:1 --length {HUGE}", "WalkCacheTooLarge",
            "MAX_WALK_BYTES", budget=20),
    refused("verify-huge-max-r", f"verify --roster 3,1,2 --max-r {HUGE} "
            "--neps-instances 0", "CountTooLarge", "max_r <= 330788 here",
            budget=20),
]


def check(row: Row, code: int, stdout: str, stderr: str) -> str | None:
    """Why a run of the row's command fails its row, or None if it
    passes."""
    expectations = [row.result, row.error, row.last]
    if sum(e is not None for e in expectations) != 1:
        return "a row needs exactly one of result, error and last"
    if code != row.code:
        return f"exit {code}, want {row.code}; stderr: {stderr.strip()[-300:]}"
    try:
        if row.result is not None:
            result = json.loads(stdout)["result"]
            for field, want in row.result.items():
                if want is None and field in result:
                    return f"{field}={result[field]!r} printed, want none"
                if want is not None and result.get(field) != want:
                    return f"{field}={result.get(field)!r}, want {want!r}"
        elif row.error is not None:
            if stdout:
                return f"stdout {stdout[:200]!r}, want none"
            error, pattern = row.error
            record = json.loads(stderr.splitlines()[-1])
            if record["error"] != error:
                return f"error {record['error']}, want {error}"
            if pattern is not None and not re.search(pattern,
                                                     record["message"]):
                return f"message {record['message']!r} misses {pattern!r}"
        else:
            lines = stdout.splitlines()
            last = lines[-1] if lines else ""
            if not last.startswith(row.last):
                return f"last line {last!r}, want {row.last!r}..."
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
    return None


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run_child(row: Row) -> str | None:
    """Run the row in a fresh `python -O -m diagwalks.cli` on this source
    tree; its failure, or None."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    budget = row.budget or DEFAULT_BUDGET
    try:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "diagwalks.cli", *row.argv],
            env=env, capture_output=True, text=True, timeout=budget,
            preexec_fn=limit_address_space)
    except subprocess.TimeoutExpired:
        return f"over its budget of {budget} s"
    return check(row, proc.returncode, proc.stdout, proc.stderr)


def main() -> int:
    failed, started = 0, time.perf_counter()
    for row in ROWS:
        row_started = time.perf_counter()
        failure = run_child(row)
        elapsed = time.perf_counter() - row_started
        failed += failure is not None
        status = "ok  " if failure is None else "FAIL"
        print(f"{status} {elapsed:7.3f} s  {row.name}"
              + (f": {failure}" if failure else ""), flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass in "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
