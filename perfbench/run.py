"""The diagwalks benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout. Workloads (see BENCHMARK.json for
why each was chosen):

    query-sweep   one interpreter builds DiagonalSystem(7,1,6) and answers
                  blocks of count_nonzero / count_all API queries
    verify-suite  `diagwalks verify` on a fixed roster, once per fixed
                  verify seed, each in a fresh interpreter, plus (3,1,4)
                  `diagwalks count` probes of a known defect

Work is repeated in whole passes (one pass: one block of queries, or the
verify runs of one pass) until T seconds have passed and each workload's
minimum number of passes is done. Every answer is checked (see
workloads.py). Children run one at a time. Times are scaled by a
reference kernel sampled all through the run (see speed.py).

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics of BENCHMARK.json. With --trace 1 the workload is run
once untraced and once under the span tracer (tracing.py), and the JSON
holds the per-layer metrics instead; the spans themselves are written to
.perfbench/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("query-sweep", "verify-suite")
# set-ups per run: a CLI set-up (an import) takes about 0.2 s and its time
# varies by 30% from one sample to the next, query-sweep's takes 1.5 s
SETUP_SAMPLES = {"verify-suite": 15, "query-sweep": 5}
TIME_LIMIT = 170  # seconds one benchmark run may take
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


class Measurement:
    """What one measured half of a run did: op latencies, pass times,
    outcome counts and, when traced, the children's span results."""

    def __init__(self):
        self.latencies = []  # every operation's time
        # CLI workloads: each invocation's median over the passes; the tail
        # is taken from these, so their number does not depend on speed
        self.op_medians = None
        self.passes = []
        self.attempted = self.failed = self.wrong = 0
        self.probes = self.probes_failed = 0
        self.traced = []  # per-process tracer output
        self.setups = 0  # set-ups inside the traced processes
        self.setup_s = []  # set-up samples (untraced runs)
        self.kernel = None  # reference kernel (speed.py) and its samples
        self.speed = []

    def scale(self):
        """Factor applied to the run's times: they are scaled to the
        reference kernel's speed (see speed.py)."""
        return speed.scale(self.kernel, self.speed)

    def tail(self):
        return tail(self.op_medians or self.latencies)

    def outcome(self, result, probe=False):
        if probe:
            self.probes += 1
            self.probes_failed += result != "ok"
        else:
            self.attempted += 1
            self.failed += result != "ok"
        self.wrong += result == "wrong"


class Runner:
    def __init__(self, seed, seconds, traced_run):
        self.seed = seed
        self.seconds = seconds
        # a traced run measures twice, so it keeps to one pass per half
        self.traced_run = traced_run
        self.deadline = time.monotonic() + TIME_LIMIT
        self.spans = None  # file that traced children append spans to
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, args):
        """Run one child interpreter; (start, end, rc, stdout, stderr)."""
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=self.env,
            capture_output=True, text=True,
            timeout=max(1.0, self.deadline - start),
        )
        return start, time.monotonic(), proc.returncode, proc.stdout, proc.stderr

    def setup_times(self, workload, m):
        args = [str(HERE / "child.py"), "setup"]
        if workload == "query-sweep":
            args += ["--system", ",".join(map(str, wl.QUERY_SYSTEM))]
        for _ in range(SETUP_SAMPLES[workload]):
            start, _, rc, stdout, stderr = self.spawn(args)
            if rc != 0:
                raise RuntimeError(f"set-up failed: {stderr.strip()}")
            m.setup_s.append(json.loads(stdout.splitlines()[-1])["ready"] - start)

    def cli(self, argv, trace, m):
        """One `diagwalks` process; (seconds, rc, stdout)."""
        if not trace:
            start, end, rc, out, _ = self.spawn(["-m", "diagwalks.cli", *argv])
            return end - start, rc, out
        start, end, rc, out, _ = self.spawn(
            [str(HERE / "child.py"), "cli", str(self.spans), str(len(m.traced)),
             *argv])
        try:
            result = json.loads(out.splitlines()[-1])
        except (ValueError, IndexError):
            return end - start, rc or 1, ""
        m.traced.append(result)
        return end - start, result["rc"], result["stdout"]

    def passes(self, ops, check, trace, m, min_passes):
        """Repeat the ops in passes; every invocation's time is a latency,
        and each op's median over the passes is kept for the tail."""
        started = time.monotonic()
        times = [[] for _ in ops]
        m.kernel = "alloc"
        while True:
            for argv, op_times in zip(ops, times):
                m.speed += speed.sample(m.kernel)
                seconds, rc, out = self.cli(argv, trace, m)
                m.outcome(check(argv, rc, out))
                op_times.append(seconds)
            m.passes.append(sum(t[-1] for t in times))
            if (len(m.passes) >= min_passes
                    and time.monotonic() - started >= self.seconds):
                break
        m.speed += speed.sample(m.kernel)
        m.latencies = [t for op_times in times for t in op_times]
        m.op_medians = [statistics.median(t) for t in times]

    def verify_suite(self, trace, m):
        def check(argv, rc, out):
            return wl.check_verify_output(rc, out)

        self.passes(wl.verify_ops(self.seed), check, trace, m,
                    1 if self.traced_run else wl.VERIFY_MIN_PASSES)
        for argv in wl.probe_ops(self.seed):
            _, rc, out = self.cli(argv, False, None)
            m.outcome(wl.check_count_output(argv, rc, out), probe=True)

    def query_sweep(self, trace, m):
        args = [str(HERE / "child.py"), "queries", "--seed", str(self.seed),
                "--seconds", str(self.seconds)]
        _, _, rc, out, err = self.spawn(
            args + (["--spans", str(self.spans)] if trace else []))
        if rc != 0:
            raise RuntimeError(f"query worker failed: {err.strip()}")
        result = json.loads(out.splitlines()[-1])
        answers = result["answers"]
        m.attempted = len(answers)
        m.failed, m.wrong = wl.check_queries(self.seed, answers)
        m.latencies = result["latencies"]
        m.kernel = "compute"
        m.speed += result["speed"]
        per_block = len(wl.QUERY_R) + len(wl.QUERY_S)
        m.passes = [sum(m.latencies[i:i + per_block])
                    for i in range(0, len(m.latencies), per_block)]
        if trace:
            m.traced.append(result)
            m.setups = 1

    def measure(self, workload, trace, m):
        {"query-sweep": self.query_sweep,
         "verify-suite": self.verify_suite}[workload](trace, m)
        return m


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it, or the maximum when there are too few
    samples for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(m):
    """End-to-end metrics; times are scaled by m.scale()."""
    f = m.scale()
    tail_value, _, _ = m.tail()
    return {
        "setup_s": f * statistics.median(m.setup_s),
        "pass_s": f * statistics.median(m.passes),
        "op_p50_ms": f * 1000 * statistics.median(m.latencies),
        "op_tail_ms": f * 1000 * tail_value,
        "ops_per_s": len(m.latencies) / (f * sum(m.latencies)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


COUNTED = ["field.pattern_calls", "field.table_bytes", "neps.hamming_walks_calls",
           "neps.hamming_terms", "graphs.walk_count_calls", "graphs.matmul_ops",
           "diagonal.count_nonzero_calls", "diagonal.brute_tuples"]
RATIOS = {"neps.hamming_unique_ratio": ("neps.hamming_unique", "neps.hamming_walks_calls"),
          "diagonal.bf_cache_hit_ratio": ("diagonal.bf_hits", "diagonal.bf_calls"),
          "diagonal.gp_cache_hit_ratio": ("diagonal.gp_hits", "diagonal.gp_calls")}
SELF_TIMED = {"field.build_field"}
# counts computed from input sizes, not measured
COMPUTED = {"field.table_bytes", "neps.hamming_terms", "graphs.matmul_ops",
            "diagonal.brute_tuples"}


def per_layer(traced, untraced):
    """Per-layer metrics of a traced measurement. Times and counts are per
    set-up plus per pass: operation spans are divided by the number of
    passes and set-up spans by the number of set-ups."""
    op_w = 1 / len(traced.passes)
    setup_w = 1 / max(traced.setups, 1)
    totals, selfs, counts, raw = Counter(), Counter(), Counter(), Counter()
    for result in traced.traced:
        for name, (setup, ops, setup_self, ops_self) in result["times"].items():
            totals[name] += setup_w * setup + op_w * ops
            selfs[name] += setup_w * setup_self + op_w * ops_self
        for key, value in result["counts"].items():
            counts[key] += op_w * value
            raw[key] += value
        for key, value in result.get("setup_counts", {}).items():
            counts[key] += setup_w * value
            raw[key] += value
    out = {f"{n}_s": (selfs if n in SELF_TIMED else totals)[n]
           for n in tracing.TIMED}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in selfs.items()
                                     if n.split(".")[0] == layer)
    out.update({name: counts[name] for name in COUNTED})
    out.update({name: raw[num] / raw[den] if raw[den] else 0.0
                for name, (num, den) in RATIOS.items()})
    traced_pass = statistics.median(traced.passes)
    out["trace.pass_s"] = traced_pass
    out["trace.overhead_ratio"] = (
        traced.scale() * traced_pass
        / (untraced.scale() * statistics.median(untraced.passes)))
    halves = (traced, untraced)
    out["ops_failed_ratio"] = (
        sum(h.failed + h.probes_failed for h in halves)
        / sum(h.attempted + h.probes for h in halves))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "diagwalks" / "__init__.py").is_file():
        print(f"no diagwalks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(args.seed, args.seconds, bool(args.trace))
    try:
        if args.trace:
            untraced = runner.measure(args.workload, False, Measurement())
            runner.spans = (ROOT / ".perfbench"
                            / f"spans-{args.workload}-seed{args.seed}.jsonl")
            runner.spans.parent.mkdir(exist_ok=True)
            runner.spans.write_text("")
            traced = runner.measure(args.workload, True, Measurement())
            values = per_layer(traced, untraced)
            halves = [untraced, traced]
            wanted = spec["per_layer"]
            print(f"spans: {runner.spans}")
        else:
            m = Measurement()
            runner.setup_times(args.workload, m)
            runner.measure(args.workload, False, m)
            values = end_to_end(m)
            halves = [m]
            wanted = spec["end_to_end"]
            _, pct, beyond = m.tail()
            print(f"{len(m.latencies)} operations in {len(m.passes)} passes; "
                  f"tail is p{pct:.2f} with {beyond} samples beyond it; "
                  f"set-up is the median of {len(m.setup_s)}; "
                  f"times are scaled by {m.scale():.4f} "
                  f"({len(m.speed)} reference samples)")
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for h in halves:
        if h.probes:
            print(f"known defect (3,1,4): {h.probes_failed} of {h.probes} "
                  f"probe operations failed")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        note = " (computed)" if metric["name"] in COMPUTED else ""
        print(f"{metric['name']:>32} = {value:.6g} {metric['unit']}{note}")
    print(json.dumps({
        "correct": not any(h.wrong for h in halves),
        "attempted": sum(h.attempted for h in halves),
        "failed": sum(h.failed for h in halves),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
