"""Code that runs inside the benchmark's child interpreters.

    child.py setup [--system p,a,b]   import diagwalks (and build a system),
                                      print the monotonic clock when ready
    child.py cli SPANS PROCESS ARGS...
                                      run `diagwalks ARGS...` under the tracer
    child.py queries --seed N --seconds T [--spans SPANS]
                                      build the query-sweep system and answer
                                      whole blocks of queries for T seconds
                                      and at least QUERY_MIN_BLOCKS blocks;
                                      traced when SPANS is given

Every mode prints one JSON object as its last line of output. Traced
modes append their spans to the file SPANS, tagged with PROCESS (0 for
the query worker), and print per-span times and the computed counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback


def traced_import(op):
    from tracing import Tracer

    start = time.perf_counter()
    import diagwalks.cli  # noqa: F401

    tracer = Tracer()
    tracer.op = op
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    return tracer


def run_setup(system):
    import diagwalks.cli  # noqa: F401

    if system:
        from diagwalks import DiagonalSystem

        DiagonalSystem(*system)
    return {"ready": time.monotonic()}


def run_cli(spans, process, argv):
    tracer = traced_import(0)
    import diagwalks.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = diagwalks.cli.main(argv)
    tracer.write(spans, process)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "times": tracer.times(), "counts": tracer.counts}


def run_queries(seed, seconds, spans):
    import speed
    from workloads import QUERY_MIN_BLOCKS, QUERY_SYSTEM, query_block

    tracer = traced_import(-1) if spans else None
    from diagwalks import DiagonalSystem

    system = DiagonalSystem(*QUERY_SYSTEM)
    setup_counts = dict(tracer.counts) if tracer else {}
    if tracer:
        tracer.counts.clear()
    latencies, answers, samples = [], [], []
    started = time.perf_counter()
    block = 0
    while True:
        samples += speed.sample("compute")
        for kind, n, alpha in query_block(seed, block):
            if tracer:
                tracer.op = len(latencies)
            count = system.count_nonzero if kind == "N" else system.count_all
            t0 = time.perf_counter()
            try:
                value = count(alpha, n)
            except Exception:  # reported as a failed query, the sweep goes on
                traceback.print_exc()
                value = None
            latencies.append(time.perf_counter() - t0)
            answers.append(None if value is None else str(value))
        block += 1
        if block >= QUERY_MIN_BLOCKS and time.perf_counter() - started >= seconds:
            break
    samples += speed.sample("compute")
    out = {"blocks": block, "latencies": latencies,
           "answers": answers, "speed": samples}
    if tracer:
        tracer.write(spans, 0)
        out.update(times=tracer.times(), counts=tracer.counts,
                   setup_counts=setup_counts)
    return out


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--system", type=lambda s: tuple(map(int, s.split(","))))
    cli = sub.add_parser("cli")
    cli.add_argument("spans")
    cli.add_argument("process", type=int)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    queries = sub.add_parser("queries")
    queries.add_argument("--seed", type=int, required=True)
    queries.add_argument("--seconds", type=float, required=True)
    queries.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "setup":
        result = run_setup(args.system)
    elif args.mode == "cli":
        result = run_cli(args.spans, args.process, args.argv)
    else:
        result = run_queries(args.seed, args.seconds, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
