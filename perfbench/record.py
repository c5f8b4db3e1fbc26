"""Write expected.json: the field representations the benchmark's own
checks need, and the program's answers for the default seed.

    PYTHONPATH=src python3 perfbench/record.py

Run it only at a commit whose answers are trusted: the recorded answers
are what later commits are compared against.
"""

from __future__ import annotations

import json

import workloads as wl
from diagwalks import DiagonalSystem, build_field


def main():
    p, a, b = wl.QUERY_SYSTEM
    field = build_field(p, a * b)
    fields = {f"{p},{a * b}": {"modulus": list(field.modulus),
                               "omega": field.omega_idx}}

    system = DiagonalSystem(*wl.QUERY_SYSTEM)
    queries = []
    for block in range(2):
        for kind, n, alpha in wl.query_block(wl.DEFAULT_SEED, block):
            count = system.count_nonzero if kind == "N" else system.count_all
            queries.append(str(count(alpha, n)))

    data = {"fields": fields, "query-sweep": queries}
    (wl.HERE / "expected.json").write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
