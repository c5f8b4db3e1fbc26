import json
import time

import pytest

from diagwalks import cli as cli_mod
from diagwalks import diagonal as diagonal_mod
from diagwalks import verify as verify_mod
from diagwalks.cli import main, parse_element
from diagwalks import DiagonalSystem, build_field
from diagwalks.errors import MAX_COUNT_BITS, BadParameters
from diagwalks.graphs import MAX_WALK_BYTES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_nonzero_only(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--p", "3", "--a", "1", "--b", "2",
        "--alpha", "pow:0", "--s", "2", "--nonzero-only",
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"]["count"] == "4"
    assert record["result"]["mode"] == "nonzero"


def test_count_all(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--p", "3", "--a", "1", "--b", "2",
        "--alpha", "0", "--s", "2",
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"]["count"] == "17"
    assert record["result"]["mode"] == "all"


def test_count_methods_agree(capsys):
    counts = {}
    for method in ("formula", "brute", "convolution", "walk"):
        code, out, _ = run_cli(
            capsys, "count", "--p", "2", "--a", "2", "--b", "3",
            "--alpha", "pow:1", "--s", "3", "--nonzero-only",
            "--method", method,
        )
        assert code == 0
        counts[method] = json.loads(out)["result"]["count"]
    assert len(set(counts.values())) == 1


def test_count_k_not_integer(capsys):
    code, out, err = run_cli(
        capsys, "count", "--p", "2", "--a", "1", "--b", "2",
        "--alpha", "0", "--s", "2",
    )
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "KNotInteger"
    assert record["divisibility"]["k_integer"] is False


@pytest.mark.parametrize("p, method", [(3, "formula"), (7, "formula")])
def test_count_not_primitive_divisor(capsys, p, method):
    code, out, err = run_cli(
        capsys, "count", "--p", str(p), "--a", "1", "--b", "4",
        "--alpha", "0", "--s", "2", "--nonzero-only", "--method", method,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "NotPrimitiveDivisor"


def test_count_walk_method_needs_nonzero_only(capsys):
    # the walk bridge counts N_r only; M_s is asked of another method
    code, out, err = run_cli(
        capsys, "count", "--p", "3", "--a", "1", "--b", "2",
        "--alpha", "0", "--s", "2", "--method", "walk",
    )
    assert code == 2 and out == ""
    assert "add --nonzero-only" in json.loads(err)["message"]


@pytest.mark.parametrize("method", ["formula", "brute", "convolution", "walk"])
@pytest.mark.parametrize("p, a, b", [("1000000000000000003", "1", "2"),
                                     ("2", "1", "1000000"),
                                     ("3", "1000", "2")])
def test_count_field_order_exit_2(capsys, no_number_theory, method, p, a, b):
    code, out, err = run_cli(
        capsys, "count", "--p", p, "--a", a, "--b", b, "--alpha", "0",
        "--s", "1", "--nonzero-only", "--method", method,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FieldTooLarge"


def test_count_prints_more_than_4300_digits(capsys):
    # N_5000(0) on GF(9) has 4,515 digits; Python 3.10.7 and later refuse
    # to print an int of more than 4,300 unless the limit is lifted
    code, out, err = run_cli(
        capsys, "count", "--p", "3", "--a", "1", "--b", "2",
        "--alpha", "0", "--s", "5000", "--nonzero-only",
    )
    assert code == 0, err
    count = json.loads(out)["result"]["count"]
    assert len(count) > 4300
    assert count == str(DiagonalSystem(3, 1, 2).count_nonzero(0, 5000))


@pytest.mark.parametrize("s, mode", [("1000000", ["--nonzero-only"]),
                                     ("10000000", [])], ids=["N_s", "M_s"])
def test_count_over_print_cap_exit_2(capsys, monkeypatch, s, mode):
    # N_(10^6)(0) on GF(9) is counted in 0.02 s but took over 14 s to print;
    # count_nonzero and count_all refuse it before their first power
    def refuse(*args):
        raise RuntimeError("counted before the count cap check")

    monkeypatch.setattr(diagonal_mod, "hamming_walks", refuse)
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "count", "--p", "3", "--a", "1", "--b", "2",
        "--alpha", "0", "--s", s, *mode,
    )
    assert time.perf_counter() - started < 1
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "CountTooLarge"
    assert f"={s} " in record["message"]
    assert str(MAX_COUNT_BITS) == "1048576" in record["message"]


def test_count_determinism(capsys):
    args = [
        "count", "--p", "5", "--a", "1", "--b", "2",
        "--alpha", "pow:3", "--s", "3",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    del r1["elapsed_ms"], r2["elapsed_ms"]
    assert json.dumps(r1) == json.dumps(r2)


def test_count_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--p", "3", "--a", "1", "--b", "2",
        "--alpha", "0", "--s", "2", "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "p,a,b,k,q,alpha,n,mode,method,count"
    assert row.split(",")[-1] == "17"


def test_count_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--p", "3", "--a", "1", "--b", "2",
        "--alpha", "0", "--s", "2", "--format", "table",
    )
    assert code == 0
    # one right-aligned "key: value" line per result field, then the time
    rows = [line.split(": ", 1) for line in out.splitlines()]
    fields = {key.strip(): value for key, value in rows}
    assert [key.strip() for key, _ in rows][:10] == [
        "p", "a", "b", "k", "q", "alpha", "r_or_s", "mode", "method", "count"]
    assert fields["count"] == "17" and fields["mode"] == "all"
    assert rows[-1][0].strip() == "elapsed" and rows[-1][1].endswith(" ms")


def test_count_table_prints_nested_values_as_json(capsys):
    # `divisibility` is a dict: one JSON value, not a Python repr, and its
    # 12-character key sets the width of every key
    args = ["count", "--p", "3", "--a", "1", "--b", "2", "--alpha", "0",
            "--s", "2"]
    _, out, _ = run_cli(capsys, *args)
    want = json.loads(out)["result"]["divisibility"]
    code, out, _ = run_cli(capsys, *args, "--format", "table")
    assert code == 0
    rows = [line.split(": ", 1) for line in out.splitlines()]
    assert {len(key) for key, _ in rows} == {len("divisibility")}
    fields = {key.strip(): value for key, value in rows}
    assert json.loads(fields["divisibility"]) == want
    assert want == {"p": 3, "a": 1, "b": 2, "k_integer": True,
                    "cases": ["a", "e"]}


def test_walks_neps_example(capsys):
    code, out, _ = run_cli(
        capsys, "walks", "--neps", "3,4", "--basis", "11",
        "--from", "0", "--to", "0", "--length", "2",
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"]["formula"] == "6"
    assert record["result"]["matrix_power"] == "6"
    assert record["result"]["agree"] is True


def test_walks_gp_zero_length(capsys, monkeypatch):
    # a zero-length walk reads no graph; k is still refused before the
    # vertex literals are read
    def refuse(field, k):
        raise RuntimeError("built the GP-graph for a zero-length walk")

    monkeypatch.setattr(cli_mod, "gp_graph", refuse)
    gp = ["walks", "--gp", "--p", "3", "--m", "2", "--length", "0"]
    for to, power in (("0", "1"), ("pow:0", "0")):
        code, out, _ = run_cli(capsys, *gp, "--k", "2", "--from", "0",
                               "--to", to)
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["matrix_power"], result["formula"]) == (power, power)
        assert result["agree"] is True
    code, out, err = run_cli(capsys, *gp, "--k", "3", "--from", "x",
                             "--to", "0")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "KDoesNotDivide"


def test_walks_gp_reports_formula_and_power(capsys):
    code, out, _ = run_cli(
        capsys, "walks", "--gp", "--p", "2", "--m", "6", "--k", "7",
        "--from", "0", "--to", "pow:3", "--length", "3",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["hamming"] == "H(3,4)"
    assert result["formula"] == result["matrix_power"]
    assert result["agree"] is True


def test_walks_rooks_graph(capsys):
    code, out, _ = run_cli(
        capsys, "walks", "--neps", "3,3", "--basis", "10;01",
        "--from", "0", "--to", "1", "--length", "2",
    )
    assert code == 0
    assert json.loads(out)["result"]["formula"] == "1"


def test_walks_bad_basis_literal_is_a_parameter_error(capsys):
    code, out, err = run_cli(
        capsys, "walks", "--neps", "3,4", "--basis", "1x",
        "--from", "0", "--to", "0", "--length", "2",
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "BadParameters"


def test_walks_over_cache_cap_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "walks", "--gp", "--p", "3", "--m", "2", "--k", "2",
        "--from", "0", "--to", "pow:0", "--length", "100000",
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "WalkCacheTooLarge"
    assert str(MAX_WALK_BYTES) in error["message"]


def test_walks_neps_size_checked_before_any_factor(capsys, monkeypatch):
    # K_6000 alone is 36 MB of int8; the product cap refuses it first
    def refuse(m):
        raise RuntimeError(f"built K_{m} before the product size check")

    monkeypatch.setattr(cli_mod, "complete_graph", refuse)
    code, out, err = run_cli(
        capsys, "walks", "--neps", "6000", "--basis", "1",
        "--from", "0", "--to", "1", "--length", "1",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ProductTooLarge"


def test_walks_neps_power_cap_checked_before_the_formula(capsys, monkeypatch):
    # the spectral sum, raising 3 to the power 10^8, ran for over a
    # minute; the power cache cap refuses the length at once
    def refuse(*args):
        raise RuntimeError("summed the spectrum before the power cap check")

    monkeypatch.setattr(cli_mod, "neps_complete_walks", refuse)
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "walks", "--neps", "4", "--basis", "1",
        "--from", "0", "--to", "0", "--length", "100000000",
    )
    assert time.perf_counter() - started < 1
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "WalkCacheTooLarge"


def test_walks_neps_all_tuples_at_length_200(capsys):
    # K2 x K2 x K2 with all seven tuples is K_8; the walk DP refused this
    # length (2.9e9 updates), the spectral sum takes 8 * 7 terms
    code, out, _ = run_cli(
        capsys, "walks", "--neps", "2,2,2",
        "--basis", "100;010;001;110;101;011;111",
        "--from", "0", "--to", "7", "--length", "200",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["agree"] is True
    assert result["formula"] == str((7**200 - 1) // 8)


def test_verify_small_roster(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--roster", "3,1,2", "--max-r", "3",
        "--neps-instances", "5",
    )
    assert code == 0
    assert "ALL PASS" in out
    assert "[FAIL]" not in out


def test_verify_skips_a_check_past_its_cap(capsys, monkeypatch):
    # a check a cap refuses is a SKIP line naming the error, and the suite
    # goes on; a triple the system refuses is still a parameter error
    monkeypatch.setattr(diagonal_mod, "MAX_ENUM_TUPLES", 100)
    code, out, _ = run_cli(capsys, "verify", "--roster", "3,1,2",
                           "--neps-instances", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "[SKIP] triple-agreement p=3 a=1 b=2  (EnumerationTooLarge: a pass "
        "to r=3 writes at least 816 values, over the cap MAX_ENUM_TUPLES of "
        "100)")
    # the convolution agreement runs on its own, past the refused brute force
    assert lines[1].startswith("[PASS] convolution-agreement p=3 a=1 b=2 ")
    assert len(lines) == 8
    assert all(line.startswith("[PASS]") for line in lines[1:7]), lines
    assert lines[7].startswith("ALL PASS (1 skipped) in ")
    code, out, err = run_cli(capsys, "verify", "--roster", "3,1,2;2,1,3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "KNotInteger"


def test_verify_negative_sizes_exit_2(capsys):
    # each used to pass vacuously: no r, no instance, ALL PASS
    code, out, err = run_cli(capsys, "verify", "--max-r", "-1",
                             "--neps-instances", "-5")
    assert code == 2
    assert "ALL PASS" not in out and "[PASS]" not in out
    assert "must be >= 0" in err


@pytest.mark.parametrize(
    "roster", ["3,1", "3,1,2;3,1,2,5", "", "3,1,2;", "3,x,2"])
def test_verify_malformed_roster_exit_2(capsys, monkeypatch, roster):
    built = []
    monkeypatch.setattr(verify_mod, "DiagonalSystem",
                        lambda *args: built.append(args))
    code, out, err = run_cli(capsys, "verify", "--roster", roster)
    assert code == 2
    assert out == "" and built == []
    error = json.loads(err)
    assert error["error"] == "BadParameters"
    assert repr(roster.split(";")[-1]) in error["message"]


def test_usage_error(capsys):
    code, _, _ = run_cli(capsys, "count", "--p", "3")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "--cap", "5")  # caps are constants
    assert code == 1


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "count", "--p", "3", "--a", "1", "--b", "2",
        "--alpha", "9,9,9", "--s", "1",
    )
    assert code == 2
    # 1,7 once counted alpha = 1 + x, 7 taken mod 3
    code, out, err = run_cli(
        capsys, "count", "--p", "3", "--a", "1", "--b", "2",
        "--alpha", "1,7", "--s", "1",
    )
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "BadParameters"
    assert "coefficient 7 of x^1" in error["message"]
    assert "p=3" in error["message"]


def test_count_negative_power_is_an_element(capsys):
    # omega^-1 = omega^(q-2) in GF(9)
    field = build_field(3, 2)
    inverse = parse_element(field, "pow:-1")
    assert inverse == parse_element(field, "pow:7")
    assert field.mul_idx(inverse, field.omega_idx) == 1
    counts = []
    for alpha in ("pow:-1", "pow:7"):
        code, out, _ = run_cli(
            capsys, "count", "--p", "3", "--a", "1", "--b", "2",
            "--alpha", alpha, "--s", "3", "--nonzero-only",
        )
        assert code == 0
        counts.append(json.loads(out)["result"]["count"])
    assert counts[0] == counts[1]


COUNT = ["count", "--p", "3", "--a", "1", "--b", "2", "--s", "2"]
NEPS = ["walks", "--basis", "11", "--length", "2"]
GP = ["walks", "--gp", "--p", "3", "--m", "2", "--k", "2", "--length", "2"]


@pytest.mark.parametrize("argv, option, literal", [
    (COUNT + ["--alpha", "pow:x"], "--alpha", "pow:x"),
    (COUNT + ["--alpha", "1,x"], "--alpha", "1,x"),
    (NEPS + ["--neps", "3,x", "--from", "0", "--to", "0"], "--neps", "3,x"),
    (NEPS + ["--neps", "3,4", "--from", "1.5", "--to", "0"], "--from", "1.5"),
    (NEPS + ["--neps", "3,4", "--from", "0", "--to", "x"], "--to", "x"),
    (GP + ["--from", "pow:x", "--to", "0"], "--from", "pow:x"),
    (GP + ["--from", "0", "--to", "1,x"], "--to", "1,x"),
], ids=["pow", "coefficient", "neps", "neps-from", "neps-to", "gp-from",
        "gp-to"])
def test_bad_literal_is_a_parameter_error(capsys, argv, option, literal):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "BadParameters"
    assert error["message"].startswith(f"{option} {literal!r}")


def test_parse_element_literals():
    f = build_field(3, 2)
    assert parse_element(f, "0") == 0
    assert parse_element(f, "pow:0") == 1
    assert parse_element(f, "pow:1") == f.omega_idx
    assert parse_element(f, "1,2") == 7  # 1 + 2x, base-3 digits (1, 2)
    with pytest.raises(ValueError):
        parse_element(f, "5")
    with pytest.raises(ValueError, match="expected 2 coefficients, got 3"):
        parse_element(f, "1,2,0")
    # a coefficient outside [0, p) is refused, not reduced mod p
    for literal, bad in (("1,7", 7), ("1,-1", -1), ("3,0", 3)):
        with pytest.raises(BadParameters, match=f"coefficient {bad} of x"):
            parse_element(f, literal)
