"""Every row of the command-line contract (`contract.py`), run in process."""

import time

import pytest

from contract import ROWS, check
from diagwalks.cli import main


def test_row_names_are_unique():
    assert len({row.name for row in ROWS}) == len(ROWS)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_row(capsys, row):
    started = time.perf_counter()
    code = main(row.argv)
    elapsed = time.perf_counter() - started
    out, err = capsys.readouterr()
    failure = check(row, code, out, err)
    assert failure is None, failure
    if row.budget is not None:
        assert elapsed < row.budget
