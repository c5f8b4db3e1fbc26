import math
import random
import time

import pytest

from diagwalks import field as field_mod
from diagwalks import k_is_integer, remark_cases
from diagwalks.divisibility import factorize, multiplicative_order
from diagwalks.errors import BadParameters, NotPrime
from diagwalks.field import MAX_FIELD_ORDER, is_prime

from conftest import order_mod, repunit


def test_k_is_integer_examples():
    assert k_is_integer(3, 1, 2)  # 4 / 2
    assert not k_is_integer(2, 1, 2)  # 3 / 2
    assert k_is_integer(2, 2, 3)  # 21 / 3


def test_k_is_integer_against_the_repunit():
    # p^{ab} = 1 mod b by one modular power, against b | 1 + x + ... +
    # x^{b-1} with x = p^a. The grid holds b = 1 and composite p, which
    # `_admit` accepts; then the valuation cases at b = 2^j: 2 | x (x = 0,
    # 2 or 8 mod b), x = 1 mod b (p = b + 1, and (-1)^2), and x = -1 mod
    # b, which is 3 mod 4 from j = 2 on
    triples = [(p, a, b) for p in range(2, 50) for a in range(1, 5)
               for b in range(1, 200 if is_prime(p) else 100)]
    for j in range(1, 11):
        b = 2**j
        triples += [(b, 1, b), (2, j, b), (b + 1, 1, b), (2 * b - 1, 2, b),
                    (2, 1, b), (b + 2, 1, b), (b + 2, 3, b), (2 * b - 1, 1, b)]
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
    # a modulus b(p^a - 1) of a million bits took 48.8 s; one power
    # p^{ab} modulo b takes O(log a + log b) steps.
    # 2^6 divides b and x, so the repunit 1 + x + ... is 1 mod 2^6
    started = time.perf_counter()
    assert not k_is_integer(2, 10**6, 10**6)
    assert time.perf_counter() - started < 0.1
    assert k_is_integer(3, 10**6, 2) and not k_is_integer(2, 10**6, 2)


def two_power_k_is_integer(p, a, b):
    """Reference for `k_is_integer` at any b, whose proof needs no
    valuations: with x = p^a mod b, R = 1 + x + ... + x^{b-1} is b = 0 mod
    b at x = 1, 1 mod b at x = 0 (b >= 2), and otherwise (x - 1)R = x^b - 1,
    so b | R exactly when b(x - 1) | x^b - 1."""
    x = pow(p, a, b)
    return x == 1 % b or (x > 1 and pow(x, b, b * (x - 1)) == 1)


def valuation_cases():
    """(p, a, b, whether k is an integer) at b the repunit cannot reach,
    for each case of the proof in `k_is_integer` on a prime power l^e | b:
    l | x - 1, where lifting the exponent gives l^e | R; l | x; and l
    coprime to x(x - 1). b = 1 divides every R."""
    cases = [(p, a, 1, True) for p in (2, 3, 2**61 - 1) for a in (1, 10**6)]
    for l in (2, 3, 5, 7):
        b = l * l
        while b < 2**64:
            # l | x - 1, with v_l(x - 1) = 1 + v_l(a), e - 1 or e
            cases += [(1 + l * t, a, b, True) for t in (1, l + 1)
                      for a in (1, 3)]
            cases += [(1 + b // l, 1, b, True), (b + 1, 1, b, True)]
            # l | x, so R = 1 mod l
            cases += [(l, 1, b, False), (l * (b + 1), 2, b, False)]
            # x = 2 mod l^e: the order of 2 mod l is over 1 and divides
            # l - 1, so it does not divide b and x^b is not 1 mod l
            if l > 2:
                cases.append((l * b + 2, 1, b, False))
            b *= l
    for j in range(2, 65):
        b = 2**j
        # x odd, 3 or 1 mod 4: v_2(R) = v_2(x + 1) + j - 1 >= j
        cases += [(b - 1, 1, b, True), (4 * b + 3, 3, b, True),
                  (3, 1, b, True), (5, 1, b, True)]
    # mixed prime powers: x = 1 mod the radical of b; and, for each prime
    # l of b, x = 0 mod l and 1 mod the others
    for b in (2**3 * 3**2 * 5 * 7**2, 2**10 * 3**7 * 5**3 * 11**2 * 13,
              3**5 * 5**4 * 7**3 * 17 * 19**2,
              math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                         47))):
        rad = math.prod(factorize(b))
        cases += [(1 + rad, 1, b, True), (1 + 5 * rad, 7, b, True),
                  (1 + rad * (b + 1), 2, b, True)]
        cases += [(l * pow(l, -1, rad // l), 1, b, False)
                  for l in factorize(b)]
    # one prime l of b coprime to x(x - 1), x = 1 mod the others:
    # 2 has order 21 mod 7^2, which divides b = 17640; it has order 8 mod
    # 17, which does not divide the odd b = 3^5 5^4 7^3 17 19^2
    cases += [(next(x for x in range(2, 49 * 30, 49) if x % 30 == 1), 1,
               17640, True),
              (next(x for x in range(2, 17 * 1995, 17) if x % 1995 == 1), 1,
               3**5 * 5**4 * 7**3 * 17 * 19**2, False)]
    return cases


def test_k_is_integer_past_the_repunit():
    # b up to 2^64, where the b-term repunit cannot be summed: the one
    # power against the two-power reference, on each valuation case and
    # on draws that reach both answers (p = 1 mod the primes of b, and p
    # uniform)
    started = time.perf_counter()
    for p, a, b, k_integer in valuation_cases():
        assert k_is_integer(p, a, b) is k_integer, (p, a, b)
        assert two_power_k_is_integer(p, a, b) is k_integer, (p, a, b)
    rng, answers = random.Random(52), set()
    for _ in range(2000):
        b = rng.randrange(1, 2**64)
        if rng.random() < 0.5:  # high powers of small primes
            b = math.prod(rng.choice((2, 3, 5, 7))
                          for _ in range(rng.randrange(1, 23)))
        p = rng.randrange(2, 2**64)
        if rng.random() < 0.5:  # 1 mod the small primes of b, or mod b
            primes = [l for l in (2, 3, 5, 7) if b % l == 0]
            p = 1 + rng.randrange(1, 2**32) * math.prod(primes or [b])
        a = rng.randrange(1, 2**20)
        want = two_power_k_is_integer(p, a, b)
        assert k_is_integer(p, a, b) is want, (p, a, b)
        answers.add(want)
    assert answers == {True, False}
    assert time.perf_counter() - started < 0.5


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
