"""Command-line surface: counting, walk queries, and the verification suite.

Exit codes: 0 ok, 1 usage error, 2 parameter/validation error,
3 verification failure. Counts are serialized as decimal strings so
arbitrary-precision values survive JSON round-trips. Every error of the
package, a cap refusal included, is one JSON record on stderr; the caps
are module constants of the library, not options; the count evaluators
themselves refuse a count over `errors.MAX_COUNT_BITS` (CountTooLarge).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# The oracles multiply matrices of at most a few hundred vertices, where
# OpenBLAS's thread pool only costs: on a 2-vCPU machine `import numpy`
# took 173-206 ms with its default two threads and 109-135 ms with one,
# and a 343-vertex float64 product after an idle pause 13-16 ms against
# 2-3 ms. Two threads win only from about 3000 vertices (a 4096-vertex
# product: 1.6-1.7 s against 2.3 s). Set before the first import that can
# load numpy, and only in the command-line process, so a library caller's
# process is left alone; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import verify as verify_mod
from .diagonal import (
    DiagonalSystem,
    brute_force_count,
    convolution_distribution,
    diagonal_exponent,
    walk_solution_count,
)
from .divisibility import remark_cases
from .errors import BadParameters, DiagwalksError
from .field import FiniteField, build_field
from .graphs import complete_graph, product_order
from .neps import (
    NepsBasis,
    agreement_pattern,
    hamming_walks,
    neps_complete_walks,
    neps_construct,
)
from .gp import HammingView, gp_graph, hamming_parameters

CSV_COLUMNS = ["p", "a", "b", "k", "q", "alpha", "n", "mode", "method", "count"]


def parse_int(option: str, literal: str, part: str | None = None) -> int:
    """part of an option's literal (the whole literal when part is None) as
    an int; BadParameters, naming the option and the literal, otherwise."""
    part = literal if part is None else part
    try:
        return int(part)
    except ValueError:
        raise BadParameters(
            f"{option} {literal!r}: {part!r} is not an integer") from None


def parse_element(field: FiniteField, literal: str,
                  option: str = "--alpha") -> int:
    """The canonical index of an element literal: "0", "pow:<e>" for
    omega^e (e any integer, taken mod q-1), or m comma-separated
    coefficients in [0, p), ascending. A bad literal raises BadParameters
    naming the option and the literal."""
    literal = literal.strip()
    if literal.startswith("pow:"):
        e = parse_int(option, literal, literal[4:])
        return field.pow_idx(field.omega_idx, e % (field.q - 1))
    parts = [parse_int(option, literal, v) for v in literal.split(",")]
    bad = f"{option} {literal!r}:"
    if len(parts) == 1 and field.m > 1:
        if parts[0] == 0:
            return 0
        raise BadParameters(
            f"{bad} a bare integer other than 0 is ambiguous for m={field.m}; "
            f"use pow:<e> or {field.m} comma-separated coefficients"
        )
    if len(parts) != field.m:
        raise BadParameters(
            f"{bad} expected {field.m} coefficients, got {len(parts)}")
    for degree, c in enumerate(parts):
        if not 0 <= c < field.p:
            raise BadParameters(f"{bad} coefficient {c} of x^{degree} is "
                                f"outside [0, p) for p={field.p}")
    return field.index_of(parts)


def emit(args, payload: dict, method: str, started: float,
         fmt: str = "json") -> None:
    """Print the record of one command: its options, result and time."""
    record = {
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k != "func"},
        "result": payload,
        "method": method,
        "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
    }
    if fmt == "json":
        print(json.dumps(record, sort_keys=False))
    elif fmt == "csv":
        payload = record["result"]
        row = [
            str(payload.get(col if col != "n" else "r_or_s", ""))
            for col in CSV_COLUMNS
        ]
        print(",".join(CSV_COLUMNS))
        print(",".join(row))
    else:  # "table"
        rows = {key: json.dumps(value) if isinstance(value, (dict, list))
                else value for key, value in record["result"].items()}
        rows["elapsed"] = f"{record['elapsed_ms']} ms"
        width = max(map(len, rows))
        for key, value in rows.items():
            print(f"{key:>{width}}: {value}")


def cmd_count(args) -> int:
    """The formula needs a DiagonalSystem, and with it a Hamming
    decomposition of k; the oracles need only the field and k."""
    started = time.perf_counter()
    p, a, b = args.p, args.a, args.b
    method = args.method
    if method == "formula":
        system = DiagonalSystem(p, a, b)
        field, k = system.field, system.k
    else:
        k = diagonal_exponent(p, a, b)
        field = build_field(p, a * b)
    alpha = parse_element(field, args.alpha)
    n = args.s
    mode = "nonzero" if args.nonzero_only else "all"
    if method == "formula":
        count = (
            system.count_nonzero(alpha, n)
            if args.nonzero_only
            else system.count_all(alpha, n)
        )
    elif method == "brute":
        count = brute_force_count(field, k, alpha, n, args.nonzero_only)
    elif method == "convolution":
        # the last row holds only the elements it reaches
        count = convolution_distribution(field, k, n,
                                         args.nonzero_only)[n].get(alpha, 0)
    else:  # "walk"
        if not args.nonzero_only:
            raise DiagwalksError("--method walk computes N_r; add --nonzero-only")
        count = walk_solution_count(field, k, 0, alpha, n)
    # the count travels as a decimal string
    payload = dict(p=p, a=a, b=b, k=k, q=field.q, alpha=args.alpha, r_or_s=n,
                   mode=mode, method=method, count=str(count))
    payload["divisibility"] = remark_cases(p, a, b).to_dict()
    emit(args, payload, method, started, args.format)
    return 0


def require_options(args, graph: str, *names: str) -> None:
    """Raise a DiagwalksError naming every option the graph needs but lacks."""
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise DiagwalksError(f"{graph} requires {', '.join(missing)}")


def cmd_walks(args) -> int:
    started = time.perf_counter()
    if args.neps is not None:
        require_options(args, "--neps", "basis")
        sizes = [parse_int("--neps", args.neps, v)
                 for v in args.neps.split(",")]
        basis = NepsBasis.parse(args.basis)
        product_order(sizes)
        graph = neps_construct([complete_graph(m) for m in sizes], basis)
        vi = parse_int("--from", args.from_vertex)
        vj = parse_int("--to", args.to_vertex)
        pattern = agreement_pattern(sizes, vi, vj)
        # the power's byte cap is checked before the spectral sum runs
        power = graph.walk_count(args.length, vi, vj)
        formula = neps_complete_walks(sizes, basis, args.length, pattern)
        payload = {
            "graph": f"NEPS({','.join(f'K{m}' for m in sizes)}; {args.basis})",
            "from": vi,
            "to": vj,
            "length": args.length,
            "formula": str(formula),
            "matrix_power": str(power),
            "agree": formula == power,
        }
    elif args.gp:
        require_options(args, "--gp", "p", "m", "k")
        field = build_field(args.p, args.m)
        graph = gp_graph(field, args.k)
        vi = parse_element(field, args.from_vertex, "--from")
        vj = parse_element(field, args.to_vertex, "--to")
        power = graph.walk_count(args.length, vi, vj)
        payload = {
            "graph": f"Gamma({args.k},{field.q})",
            "from": vi,
            "to": vj,
            "length": args.length,
            "matrix_power": str(power),
        }
        pair = hamming_parameters(args.p, args.m, args.k)
        if pair is not None:
            view = HammingView(field, *pair)
            pattern = view.pattern_idx(field.sub_idx(vj, vi))
            alphabet = args.p**view.a
            formula = hamming_walks(view.b, alphabet, args.length, pattern)
            payload["formula"] = str(formula)
            payload["hamming"] = f"H({view.b},{alphabet})"
            payload["agree"] = formula == power
    else:
        raise DiagwalksError("one of --neps or --gp is required")
    emit(args, payload, "walks", started)
    return 0


def cmd_verify(args) -> int:
    started = time.perf_counter()
    roster = None
    if args.roster is not None:
        roster = []
        for part in args.roster.split(";"):
            triple = tuple(parse_int("--roster", args.roster, v)
                           for v in part.split(","))
            if len(triple) != 3:
                raise BadParameters(f"roster part {part!r} is not p,a,b")
            roster.append(triple)
    results = verify_mod.run_all(
        roster=roster,
        max_r=args.max_r,
        neps_instances=args.neps_instances,
        seed=args.seed,
    )
    for result in results:
        print(result.line())
    ok = all(r.ok for r in results)
    skipped = sum(r.skipped for r in results)
    status = "ALL PASS" if ok else "FAILURES PRESENT"
    if skipped:
        status += f" ({skipped} skipped)"
    elapsed = round((time.perf_counter() - started) * 1000, 3)
    print(f"{status} in {elapsed} ms")
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagwalks",
        description="Exact diagonal-equation solution counts over finite "
        "fields via walk counting, with built-in oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count solutions of a diagonal equation")
    count.add_argument("--p", type=int, required=True)
    count.add_argument("--a", type=int, required=True)
    count.add_argument("--b", type=int, required=True)
    count.add_argument("--alpha", required=True,
                       help='"0", "pow:<e>", or comma-separated coefficients')
    count.add_argument("--s", type=int, required=True,
                       help="number of summands (s, or r with --nonzero-only)")
    count.add_argument("--nonzero-only", action="store_true",
                       help="count over nonzero tuples only (N_r)")
    count.add_argument("--method", default="formula",
                       choices=["formula", "brute", "convolution", "walk"])
    count.add_argument("--format", default="json",
                       choices=["json", "csv", "table"])
    count.set_defaults(func=cmd_count)

    walks = sub.add_parser("walks", help="exact walk counts on GP or NEPS graphs")
    walks.add_argument("--gp", action="store_true")
    walks.add_argument("--neps", help="comma-separated complete-graph sizes")
    walks.add_argument("--basis", help='basis literal, e.g. "11" or "10;01"')
    walks.add_argument("--p", type=int)
    walks.add_argument("--m", type=int)
    walks.add_argument("--k", type=int)
    walks.add_argument("--from", dest="from_vertex", required=True,
                       help="vertex index (NEPS) or element literal (GP)")
    walks.add_argument("--to", dest="to_vertex", required=True,
                       help="vertex index (NEPS) or element literal (GP)")
    walks.add_argument("--length", type=int, required=True)
    walks.set_defaults(func=cmd_walks)

    verify = sub.add_parser("verify", help="run the verification suites")
    verify.add_argument("--roster", help='e.g. "3,1,2;5,1,2" (default full roster)')
    verify.add_argument("--max-r", type=int, default=3)
    verify.add_argument("--neps-instances", type=int, default=50)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    # counts are exact and printed in full; interpreters from 3.10.7 on
    # refuse to convert an int of more than 4,300 digits unless told not to
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DiagwalksError, ValueError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        report = getattr(exc, "report", None)
        if report is not None:
            record["divisibility"] = report.to_dict()
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
