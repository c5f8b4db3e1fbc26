"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import oracle
import run
import workloads as wl
from diagwalks import DiagonalSystem, brute_force_count, build_field

HERE = Path(__file__).resolve().parent
SMALL = [(3, 1, 2), (5, 1, 2), (2, 2, 3), (3, 2, 2), (7, 1, 3)]


@pytest.mark.parametrize("p,a,b", SMALL)
def test_distance_and_recurrence_match_program(p, a, b):
    system = DiagonalSystem(p, a, b)
    field = system.field
    coords = oracle.HammingCoordinates(p, a, b, field.modulus, field.omega_idx)
    nonzero, alls = oracle.hamming_class_counts(b, p**a, system.k, 4)
    for alpha in range(field.q):
        d = coords.distance(oracle.index_digits(alpha, p, field.m))
        assert d == b - sum(system.view.pattern_idx(alpha))
        for n in range(5):
            assert nonzero[n][d] == system.count_nonzero(alpha, n)
            assert alls[n][d] == system.count_all(alpha, n)


@pytest.mark.parametrize("nonzero_only", [True, False])
def test_small_field_counts_match_brute_force(nonzero_only):
    field = build_field(3, 2)
    for alpha in range(3):
        for n in range(4):
            want = brute_force_count(field, 2, alpha, n, nonzero_only)
            coeffs = oracle.index_digits(alpha, 3, 2)
            assert oracle.small_field_counts(3, 2, 2, coeffs, n,
                                             nonzero_only) == want


def test_probe_expectations_are_k9_walks():
    # R_10 in GF(81) is GF(9)*, so the sums stay in GF(9): walks on K_9
    def k9(r, same):
        return (8**r + (8 if same else -1) * (-1) ** r) // 9

    for argv in wl.probe_ops(wl.DEFAULT_SEED) + wl.probe_ops(1):
        _, _, _, alpha, n, nonzero_only = wl._parse_argv(argv)
        if nonzero_only:
            want = 10**n * k9(n, alpha == "0")
        else:
            want = sum(comb(n, i) * 10**i * k9(i, False) for i in range(1, n + 1))
        assert wl.expected_count(argv) == want


def test_recorded_representations_are_primitive():
    for key, rep in wl.expected_data()["fields"].items():
        p, m = map(int, key.split(","))
        n = p**m - 1
        w = oracle.index_digits(rep["omega"], p, m)
        one = oracle.poly_powmod([1], 0, rep["modulus"], p)
        assert oracle.poly_powmod(w, n, rep["modulus"], p) == one
        for f in {f for f in range(2, n + 1) if n % f == 0 and all(
                f % g for g in range(2, int(f**0.5) + 1))}:
            assert oracle.poly_powmod(w, n // f, rep["modulus"], p) != one


def test_recorded_answers_match_independent_checks():
    assert wl.check_queries(wl.DEFAULT_SEED,
                            wl.expected_data()["query-sweep"]) == (0, 0)


def test_wrong_answers_are_caught():
    argv = wl.probe_ops(3)[0]
    good = json.dumps({"result": {"count": str(wl.expected_count(argv))}})
    bad = json.dumps({"result": {"count": "1"}})
    assert wl.check_count_output(argv, 0, good) == "ok"
    assert wl.check_count_output(argv, 0, bad) == "wrong"
    assert wl.check_count_output(argv, 2, "") == "failed"
    answers = wl.expected_data()["query-sweep"][:5]
    assert wl.check_queries(wl.DEFAULT_SEED, answers[:4] + ["1"]) == (1, 1)
    assert wl.check_queries(wl.DEFAULT_SEED, [None]) == (1, 0)
    assert wl.check_verify_output(3, "[FAIL] x\nFAILURES PRESENT") == "wrong"
    assert wl.check_verify_output(0, "[PASS] x\nALL PASS") == "wrong"  # too few


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_cli_tail_comes_from_per_invocation_medians():
    m = run.Measurement()
    m.latencies, m.op_medians = [1.0, 2.0, 9.0, 1.0], [1.5, 2.0]
    assert m.tail() == (2.0, 100.0, 0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    m = run.Measurement()
    m.latencies, m.passes, m.attempted = [1.0], [1.0], 1
    m.setup_s, m.kernel, m.speed = [1.0], "compute", [1.0]
    assert set(run.end_to_end(m)) == {x["name"] for x in spec["end_to_end"]}
    assert set(run.per_layer(m, m)) == {x["name"] for x in spec["per_layer"]}


def _traced(*args):
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_computed_counts_repeat_exactly(tmp_path):
    # same parameters, different alphas and seeds: identical computed counts
    spans = str(tmp_path / "spans.jsonl")
    counts = [_traced("cli", spans, "0",
                      *wl.count_argv(5, 1, 2, alpha, 3, False))["counts"]
              for alpha in ("pow:1", "pow:7")]
    assert counts[0]["field.table_bytes"] == counts[1]["field.table_bytes"] > 0
    assert counts[0]["neps.hamming_terms"] == counts[1]["neps.hamming_terms"] == sum(
        comb(i + 1, 1) for i in range(1, 4))

    verify = [_traced("cli", spans, "1", "verify", "--roster", "3,1,2;2,2,3", "--max-r", "2",
                      "--neps-instances", "0", "--seed", seed)["counts"]
              for seed in ("1", "2")]
    for key in ("graphs.matmul_ops", "diagonal.brute_tuples", "field.table_bytes"):
        assert verify[0][key] == verify[1][key] > 0
    # walk bridge: r <= 2 on GF(9) and GF(64); closed-form examples: two
    # 12-vertex NEPS up to r = 8
    assert verify[0]["graphs.matmul_ops"] == 2 * (9**3 + 64**3) + 2 * 8 * 12**3

    blocks = [_traced("queries", "--seed", seed, "--seconds", "0", "--spans", spans)
              for seed in ("1", "2")]
    terms = sum(comb(r + 5, 5) for r in wl.QUERY_R) + sum(
        comb(i + 5, 5) for s in wl.QUERY_S for i in range(1, s + 1))
    for block in blocks:
        assert block["counts"]["neps.hamming_terms"] == terms * block["blocks"]
    assert blocks[0]["setup_counts"] == blocks[1]["setup_counts"]


def test_spans_nest_and_cover_the_wrapped_callers(tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = _traced("cli", str(spans), "4",
                     *wl.count_argv(3, 1, 2, "pow:1", 2, False))
    assert result["rc"] == 0
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    names = [row[0] for row in rows]
    # count_all -> count_nonzero -> diagonal.hamming_walks, a by-name import
    assert {"cli.import", "cli.main", "field.build_field", "diagonal.count_all",
            "diagonal.count_nonzero", "neps.hamming_walks"} <= set(names)
    for name, start, end, parent, op, process in rows:
        assert start <= end and op == 0 and process == 4
        if parent >= 0:
            assert rows[parent][1] <= start and end <= rows[parent][2]
    hamming = names.index("neps.hamming_walks")
    assert names[rows[hamming][3]] == "diagonal.count_nonzero"


def test_walk_count_spans_only_new_powers(tmp_path):
    # every walk_count call is counted, but only calls that build a new
    # matrix power are spans, one per call that extends the cache
    spans = tmp_path / "spans.jsonl"
    result = _traced("cli", str(spans), "0", "verify", "--roster", "3,1,2",
                     "--max-r", "2", "--neps-instances", "0", "--seed", "1")
    assert result["rc"] == 0
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    walk_spans = sum(row[0] == "graphs.walk_count" for row in rows)
    calls = result["counts"]["graphs.walk_count_calls"]
    assert 0 < walk_spans < calls
    assert result["counts"]["graphs.matmul_ops"] >= walk_spans
