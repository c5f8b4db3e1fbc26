"""Integrality of k = (p^{ab}-1)/(b(p^a-1)) and sufficient-condition catalogue.

k is an integer exactly when b divides 1 + x + ... + x^{b-1} with x = p^a,
a repunit taken mod b in O(log b) steps from x mod b alone. The catalogue
evaluates six published sufficient conditions for that divisibility;
each fired case must imply integrality (tested as a sweep). The order
test factors only an exponent its caller knows, never n or phi(n).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import field
from .errors import BadParameters, NotPrime, as_integer, shown
from .field import factorize


def multiplicative_order(x: int, n: int, e: int) -> int:
    """Order of x modulo n, given e >= 1 with x^e = 1 mod n (else
    BadParameters): it divides e, so strip each prime of e from e while
    the power stays 1."""
    one = 1 % n  # the order of anything mod 1 is 1
    if e < 1 or pow(x, e, n) != one:
        raise BadParameters(f"{shown(x)}^{shown(e)} is not 1 modulo {shown(n)}")
    order = e
    for r in factorize(e):
        while order % r == 0 and pow(x, order // r, n) == one:
            order //= r
    return order


def repunit(x: int, b: int) -> int:
    """1 + x + ... + x^{b-1}, evaluated exactly; the reference the tests
    hold `k_is_integer` to."""
    return sum(x**j for j in range(b))


def _admit(p: int, a: int, b: int) -> tuple[int, int, int]:
    """p, a and b as Python ints: BadParameters unless each is an integer,
    NotPrime for p < 2, as `check_field` refuses it, and BadParameters,
    naming the value, unless a >= 1 and b >= 1; no power is taken."""
    p, a, b = as_integer("p", p), as_integer("a", a), as_integer("b", b)
    if p < 2:
        raise NotPrime(f"p={shown(p)} is not prime")
    for name, value in (("a", a), ("b", b)):
        if value < 1:
            raise BadParameters(f"{name}={shown(value)} must be >= 1")
    return p, a, b


def k_is_integer(p: int, a: int, b: int) -> bool:
    """Whether b divides (p^{ab}-1)/(p^a-1) = 1 + x + ... + x^{b-1} with
    x = p^a. That repunit mod b depends only on x mod b, so it is taken
    mod b by doubling, R(2n) = R(n)(1 + x^n) and R(n+1) = 1 + x R(n), in
    O(log b) steps from the top bit of b down; p^a is never formed. p, a
    and b are admitted first (`_admit`)."""
    p, a, b = _admit(p, a, b)
    x = pow(p, a, b)
    total, power = 0, 1  # R(n) and x^n mod b, n the bits of b read so far
    for bit in bin(b)[2:]:
        total, power = total * (1 + power) % b, power * power % b
        if bit == "1":
            total, power = (1 + x * total) % b, power * x % b
    return total == 0


def _order_below(x: int, r: int, t: int) -> bool:
    """Whether ord_{r^t}(x) exists and is r^h for some h < t. Both hold
    exactly when x^{r^{t-1}} = 1 mod r^t: that power is 1 only for x
    coprime to r, and then the order divides r^{t-1}."""
    return pow(x, r ** (t - 1), r**t) == 1


class DivisibilityReport(NamedTuple):
    p: int
    a: int
    b: int
    k_integer: bool
    cases: frozenset = frozenset()

    def to_dict(self):
        return {**self._asdict(), "cases": sorted(self.cases)}


def remark_cases(p: int, a: int, b: int) -> DivisibilityReport:
    """Evaluate the six sufficient conditions with x = p^a, read only
    modulo b or a divisor of b, and through gcd(x, b): so x = p^a mod b.

    Cases are reported as a set (they overlap), never first-match. p, a
    and b are admitted first, as in `k_is_integer`; b over
    field.MAX_FIELD_ORDER, the bound `check_field` puts on q - 1, read when
    the call runs, is refused before it is factored.
    """
    p, a, b = _admit(p, a, b)
    if b > field.MAX_FIELD_ORDER:
        raise BadParameters(f"b={shown(b)} is over the cap MAX_FIELD_ORDER of "
                            f"{field.MAX_FIELD_ORDER}")
    x = pow(p, a, b)
    cases = set()
    fac = factorize(b)
    primes = sorted(fac)

    # (a) b prime, different from p, x = 1 mod b
    if len(fac) == 1 and fac[primes[0]] == 1 and b != p and x % b == 1:
        cases.add("a")

    # (b) b = 2r with r an odd prime, x coprime to b, x = +-1 mod r
    if set(fac.values()) == {1} and len(fac) == 2 and 2 in fac:
        r = max(primes)
        if r % 2 == 1 and math.gcd(x, b) == 1 and x % r in (1, r - 1):
            cases.add("b")

    # (c) b = r r' with r < r' odd primes, r does not divide r'-1, x = 1 mod rr'
    if set(fac.values()) == {1} and len(fac) == 2 and 2 not in fac:
        r, rp = primes
        if (rp - 1) % r != 0 and x % (r * rp) == 1:
            cases.add("c")

    # (d) b squarefree with >= 2 primes, all different from p,
    #     x = 1 mod r_1 and x^{b/r_i} = 1 mod r_i for i >= 2
    if set(fac.values()) == {1} and len(fac) >= 2 and p not in fac:
        r1 = primes[0]
        if x % r1 == 1 and all(
            pow(x, b // ri, ri) == 1 for ri in primes[1:]
        ):
            cases.add("d")

    # (e) b = r^t prime power with ord_b(x) = r^h for some 0 <= h < t
    if len(fac) == 1 and _order_below(x, primes[0], fac[primes[0]]):
        cases.add("e")

    # (f) b a product of >= 2 prime powers, primes different from p,
    #     ord_{r_i^{t_i}}(x) = r_i^{h_i} with h_i <= t_i - 1 for all i
    if len(fac) >= 2 and p not in fac and all(
        _order_below(x, r, t) for r, t in fac.items()
    ):
        cases.add("f")

    return DivisibilityReport(p=p, a=a, b=b, k_integer=k_is_integer(p, a, b),
                              cases=cases)
