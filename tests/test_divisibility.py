import math
import time

import pytest

from diagwalks import field as field_mod
from diagwalks import k_is_integer, remark_cases
from diagwalks.divisibility import factorize, multiplicative_order, repunit
from diagwalks.errors import BadParameters, NotPrime
from diagwalks.field import MAX_FIELD_ORDER, is_prime

from conftest import order_mod


def test_k_is_integer_examples():
    assert k_is_integer(3, 1, 2)  # 4 / 2
    assert not k_is_integer(2, 1, 2)  # 3 / 2
    assert k_is_integer(2, 2, 3)  # 21 / 3


def test_k_is_integer_against_the_repunit():
    # b(x-1) | x^b - 1 by one modular power, against b | 1 + x + ... + x^{b-1},
    # with x = p^a mod b. The grid holds b = 1 and composite p, which
    # `_admit` accepts; then the branch points at b = 2^j: x = 0, x = 1
    # (p = b + 1, and (-1)^2), and x = 2, where 2^b = 0 mod b(x-1) = b
    triples = [(p, a, b) for p in range(2, 50) for a in range(1, 5)
               for b in range(1, 200 if is_prime(p) else 100)]
    for j in range(1, 11):
        b = 2**j
        triples += [(b, 1, b), (2, j, b), (b + 1, 1, b), (2 * b - 1, 2, b),
                    (2, 1, b), (b + 2, 1, b), (b + 2, 3, b)]
    for p, a, b in triples:
        assert k_is_integer(p, a, b) == (repunit(p**a, b) % b == 0), \
            (p, a, b)


def test_k_is_integer_never_builds_the_repunit():
    # the b-term repunit took 17 s at b = 10^5; the modular power takes
    # microseconds at b = 10^6
    started = time.perf_counter()
    assert not k_is_integer(2, 1, 10**6)
    assert time.perf_counter() - started < 0.1


def test_k_is_integer_never_forms_p_to_the_a():
    # a modulus b(p^a - 1) of a million bits took 48.8 s; x = p^a mod b
    # and one power modulo b(x - 1) < b^2 take O(log a + log b) steps.
    # 2^6 divides b and x, so the repunit 1 + x + ... is 1 mod 2^6
    started = time.perf_counter()
    assert not k_is_integer(2, 10**6, 10**6)
    assert time.perf_counter() - started < 0.1
    assert k_is_integer(3, 10**6, 2) and not k_is_integer(2, 10**6, 2)


def test_remark_cases_never_forms_p_to_the_a():
    # each case reads x = p^a only mod b or a divisor of b, or through
    # gcd(x, b): 3^(10^7) took 3.4 s to form, x mod b is one modular power.
    # x = 1 mod 4 has order 1 = 2^0, so case (e) fires
    started = time.perf_counter()
    report = remark_cases(3, 10**8, 4)
    assert time.perf_counter() - started < 0.1
    assert report.k_integer and report.cases == {"e"}


@pytest.mark.parametrize("call, args, named", [
    (k_is_integer, (2, -1, 4), "a=-1"),
    (k_is_integer, (3, 2, 0), "b=0"),
    (k_is_integer, (2, 1.5, 4), "a=1.5"),
    (remark_cases, (3, 2, -4), "b=-4"),
    (remark_cases, (2, -1, 4), "a=-1"),
])
def test_bad_parameters_refused_typed(call, args, named):
    # refused before any power: pow(2, -1, 4) and pow(3, 2, 0) raised a
    # bare ValueError, and b = -4 returned k_integer=True
    with pytest.raises(BadParameters, match=named) as info:
        call(*args)
    assert type(info.value) is BadParameters


@pytest.mark.parametrize("b", [MAX_FIELD_ORDER + 1, 10**14 + 31, 10**15 + 37,
                               10**5000],
                         ids=["cap+1", "10^14+31", "10^15+37", "10^5000"])
def test_remark_cases_refuses_b_over_the_field_cap(b):
    # trial division of b took 0.66 s at 10^14 + 31 and 2.2 s at
    # 10^15 + 37; no field within MAX_FIELD_ORDER has b > 20
    started = time.perf_counter()
    with pytest.raises(BadParameters, match=f"cap MAX_FIELD_ORDER of "
                                            f"{MAX_FIELD_ORDER}"):
        remark_cases(2, 1, b)
    assert time.perf_counter() - started < 0.1
    assert remark_cases(2, 1, MAX_FIELD_ORDER).b == MAX_FIELD_ORDER
    # k_is_integer never factors b, so it still takes any b; no b > 1
    # divides 2^b - 1
    assert not k_is_integer(2, 1, 10**15 + 37)


def test_remark_cases_reads_the_field_cap_when_it_runs(monkeypatch):
    monkeypatch.setattr(field_mod, "MAX_FIELD_ORDER", 100)
    with pytest.raises(BadParameters, match="b=101 is over the cap "
                                            "MAX_FIELD_ORDER of 100"):
        remark_cases(3, 1, 101)


@pytest.mark.parametrize("call", [k_is_integer, remark_cases])
@pytest.mark.parametrize("p", [1, 0, -3, -(10**30)])
def test_p_below_two_is_not_prime(call, p):
    # k_is_integer(-3, 1, 2) returned True and remark_cases(1, 1, 2)
    # reported k_integer=True; check_field refuses such a p the same way
    started = time.perf_counter()
    with pytest.raises(NotPrime, match="is not prime"):
        call(p, 1, 2)
    assert time.perf_counter() - started < 0.1


def test_repunit():
    assert repunit(4, 3) == 21
    assert repunit(3, 2) == 4
    assert repunit(10, 4) == 1111


def test_quotient_two_ways():
    for p in (2, 3, 5, 7):
        for a in range(1, 4):
            for b in range(1, 10):
                x = p**a
                assert repunit(x, b) == (x**b - 1) // (x - 1)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}


def test_multiplicative_order():
    assert multiplicative_order(2, 7, 6) == 3
    assert multiplicative_order(3, 7, 6) == 6
    assert multiplicative_order(1, 5, 4) == 1
    assert multiplicative_order(3, 1, 1) == 1  # everything is 1 mod 1
    # 4^3 = 0 mod 8, and 4 has no order mod 8
    with pytest.raises(BadParameters, match="4\\^3 is not 1 modulo 8"):
        multiplicative_order(4, 8, 3)
    with pytest.raises(BadParameters):
        multiplicative_order(2, 7, 0)
    # every exponent e < 2n: the order by iteration when x^e = 1, else
    # a refusal
    for n in range(2, 40):
        for x in range(1, n):
            order = order_mod(x, n) if math.gcd(x, n) == 1 else None
            for e in range(1, 2 * n):
                if order and e % order == 0:
                    assert multiplicative_order(x, n, e) == order, (x, n, e)
                else:
                    with pytest.raises(BadParameters):
                        multiplicative_order(x, n, e)


def test_case_a_examples():
    assert "a" in remark_cases(3, 1, 2).cases
    assert "a" in remark_cases(2, 2, 3).cases
    report = remark_cases(2, 1, 2)
    assert not report.cases
    assert not report.k_integer


def test_case_b_fires():
    # b = 2*3, x = p^a with x = 1 mod 3 and x odd: p=7, a=1, x=7
    report = remark_cases(7, 1, 6)
    assert "b" in report.cases
    assert report.k_integer


def test_case_e_fires():
    # b = 9, x = 4: ord_9(4) = 3 = r^1 with t=2
    report = remark_cases(2, 2, 9)
    assert "e" in report.cases
    assert report.k_integer


@pytest.mark.parametrize("p, a, b, cases, k_integer", [
    (11, 1, 16, {"e"}, True),
    (11, 2, 27, {"e"}, True),
    (3, 1, 4, {"e"}, True),
    (2, 3, 7, {"a", "e"}, True),
    (11, 1, 20, {"f"}, True),
    (7, 2, 36, {"f"}, True),
    (11, 2, 30, {"d", "f"}, True),
    (7, 1, 6, {"b", "d", "f"}, True),
    (11, 1, 12, set(), True),
    (11, 1, 18, set(), True),
    (11, 1, 13, set(), False),
    (3, 1, 9, set(), False),
    (2, 4, 15, {"c", "d", "f"}, True),
])
def test_case_sets_pinned(p, a, b, cases, k_integer):
    # (e) and (f) share one order test; these sets are the ones the two
    # separate spellings of it gave, over triples that fire each and none
    report = remark_cases(p, a, b)
    assert report.cases == cases
    assert report.k_integer is k_integer


def test_soundness_sweep():
    counterexamples = []
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, 4):
            for b in range(1, 13):
                report = remark_cases(p, a, b)
                if report.cases and not report.k_integer:
                    counterexamples.append((p, a, b, sorted(report.cases)))
    assert counterexamples == []


def test_reports_are_sets_not_first_match():
    # (a) and (e) overlap for prime b with x = 1 mod b
    report = remark_cases(3, 1, 2)
    assert {"a", "e"} <= report.cases


def test_report_serialization():
    d = remark_cases(3, 1, 2).to_dict()
    assert d["p"] == 3 and d["k_integer"] is True
    assert isinstance(d["cases"], list)


def test_sweep_primes_only():
    assert all(is_prime(p) for p in (2, 3, 5, 7, 11, 13))
