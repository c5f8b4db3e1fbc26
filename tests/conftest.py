import itertools
import math

import pytest

from diagwalks import DiagonalSystem, build_field
from diagwalks import diagonal as diagonal_mod
from diagwalks import field as field_mod
from diagwalks import gp as gp_mod
from diagwalks.field import MAX_FIELD_ORDER, _invert_matrix_mod_p, is_prime
from diagwalks.verify import DEFAULT_ROSTER as ROSTER


@pytest.fixture(scope="session")
def f9():
    return build_field(3, 2)


@pytest.fixture(scope="session")
def f25():
    return build_field(5, 2)


@pytest.fixture(scope="session")
def f64():
    return build_field(2, 6)


@pytest.fixture
def no_number_theory(monkeypatch):
    """Make every primality, integrality and order test raise, to show a
    refusal comes before any of them."""
    def refuse(*args):
        raise RuntimeError("number theory ran before the field order check")

    for module, name in [(field_mod, "is_prime"),
                         (diagonal_mod, "k_is_integer"),
                         (diagonal_mod, "multiplicative_order"),
                         (gp_mod, "multiplicative_order")]:
        monkeypatch.setattr(module, name, refuse)


@pytest.fixture
def no_add_table(monkeypatch):
    """Make every read of `FiniteField.add_table` fail the test, to show
    that no addition table is built. pytest.fail raises an exception that
    no `except Exception` and no pytest.raises of a package error catch."""
    def refuse(field):
        pytest.fail(f"the addition table of {field!r} was read")

    monkeypatch.setattr(field_mod.FiniteField, "add_table", property(refuse))


def fields_under(limit=MAX_FIELD_ORDER):
    """Every (p, m) with p < 2048 prime and p^m <= limit: under the field
    cap, the 551 fields the censuses sweep."""
    return [(p, m) for p in range(2, 2048) if is_prime(p)
            for m in range(1, 21) if p**m <= limit]


def order_by_multiplication(x, times, one):
    """Reference for `multiplicative_order` and the primitive search: the
    least t >= 1 with x^t = one, by repeated `times(acc, x)`, no factoring.
    x must lie in a finite group with identity `one`."""
    acc, t = x, 1
    while acc != one:
        acc, t = times(acc, x), t + 1
    return t


def order_mod(x, n):
    """The order of x modulo n, for x coprime to n, by iteration."""
    return order_by_multiplication(x % n, lambda s, t: s * t % n, 1 % n)


def repunit(x, b):
    """1 + x + ... + x^{b-1}, evaluated exactly: the reference for
    `k_is_integer`, which holds exactly when b divides it with x = p^a."""
    return sum(x**j for j in range(b))


def divisors(n):
    """The divisors of n >= 1, by trial up to its square root."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


@pytest.fixture(scope="session")
def roster_systems():
    return {(p, a, b): DiagonalSystem(p, a, b) for p, a, b in ROSTER}


def enumerate_walks(adj, r, i, j):
    """Independent walk oracle: recursive step enumeration, no matrices."""
    if r == 0:
        return 1 if i == j else 0
    total = 0
    n = len(adj)
    for mid in range(n):
        if adj[i][mid]:
            total += enumerate_walks(adj, r - 1, mid, j)
    return total


def hamming_distance_walks(b, q, r_max):
    """Independent Hamming walk oracle: W[r][d], the r-walks in H(b,q)
    between vertices at distance d, by the distance-class recurrence.
    A vertex at distance d has d neighbours at d-1, d(q-2) at d and
    (b-d)(q-1) at d+1; O(r*b) work, no spectrum and no matrices."""
    rows = [[1] + [0] * b]
    for _ in range(r_max):
        w = rows[-1]
        rows.append([
            (d * w[d - 1] if d else 0)
            + d * (q - 2) * w[d]
            + ((b - d) * (q - 1) * w[d + 1] if d < b else 0)
            for d in range(b + 1)
        ])
    return rows


def krawtchouk_double_sum(b, q, r, d):
    """Reference for `hamming_walks`: the r-walks in H(b,q) between
    vertices at distance d, from the Krawtchouk weights as the binomial
    double sum K_j(d) = sum_i (-1)^i (q-1)^(j-i) C(d,i) C(b-d,j-i), O(b^2)
    terms and no recurrence, times the eigenvalue powers, over q^b."""
    total = sum(
        sum((-1) ** i * (q - 1) ** (j - i) * math.comb(d, i)
            * math.comb(b - d, j - i) for i in range(min(d, j) + 1))
        * (b * (q - 1) - q * j) ** r
        for j in range(b + 1))
    walks, rem = divmod(total, q**b)
    assert rem == 0, (b, q, r, d)
    return walks


def subfield_basis(smap):
    """The tau powers and the basis {omega^{ik}} of a SubfieldMap,
    recomputed from its field, a, b and k."""
    field, a = smap.field, smap.a
    tau = field.pow_idx(field.omega_idx, (field.q - 1) // (field.p**a - 1))
    omega_k = field.pow_idx(field.omega_idx, smap.k)
    return ([field.pow_idx(tau, j) for j in range(a)],
            [field.pow_idx(omega_k, i) for i in range(smap.b)])


def solve_list(smap, x_idx):
    """The m F_p coefficients packed in `solve_word(x)`, one per slot."""
    word, width = smap.solve_word(x_idx), smap._width
    return [(word >> (i * width)) & ((1 << width) - 1)
            for i in range(smap.field.m)]


def coordinates(smap, x_idx):
    """Coordinates of x as b subfield elements: block i of the solve,
    sum_j c_{ia+j} tau^j, summed in field arithmetic."""
    field, a = smap.field, smap.a
    tau_pows, _ = subfield_basis(smap)
    sol = solve_list(smap, x_idx)
    out = []
    for i in range(smap.b):
        acc = 0
        for c, t in zip(sol[i * a:(i + 1) * a], tau_pows):
            acc = field.add_idx(acc, field.mul_idx(c, t))
        out.append(acc)
    return tuple(out)


def reconstruct(smap, coords):
    """The element sum_i c_i omega^{ik} with the given coordinates."""
    field = smap.field
    acc = 0
    for c, w in zip(coords, subfield_basis(smap)[1]):
        acc = field.add_idx(acc, field.mul_idx(c, w))
    return acc


def list_solver(smap):
    """Reference for `SubfieldMap.solve_word`, unpacked by `solve_list`:
    the m x m inverse, rebuilt from the map's basis, times the digit
    vector, one list product per element and no packing."""
    field, p, m = smap.field, smap.field.p, smap.field.m
    tau_pows, basis = subfield_basis(smap)
    cols = [field.digits(field.mul_idx(t, w)) for w in basis for t in tau_pows]
    inv = _invert_matrix_mod_p(
        [[cols[c][r] for c in range(m)] for r in range(m)], p)

    def solve(x_idx):
        d = field.digits(x_idx)
        return [sum(r * v for r, v in zip(row, d)) % p for row in inv]
    return solve


def poly_mul(f, g, p):
    """Schoolbook product of two coefficient vectors over F_p (ascending
    degree), trailing zeros trimmed: the reference for `mul_idx`."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_rem(f, g, p):
    """Remainder of f modulo monic g over F_p by long division, for f
    with coefficients in [0, p), trailing zeros trimmed (ascending degree,
    like `poly_mul`)."""
    f, dg = list(f), len(g) - 1
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c:
            for j in range(dg + 1):
                f[i - dg + j] = (f[i - dg + j] - c * g[j]) % p
    rem = f[:dg]
    while rem and not rem[-1]:
        rem.pop()
    return tuple(rem)


def schoolbook_mul(field, i, j):
    """i * j in `field` by the schoolbook product reduced modulo f."""
    prod = poly_mul(field.digits(i), field.digits(j), field.p)
    return field.index_of(poly_rem(prod, field.modulus, field.p))


def smallest_irreducible(p, m):
    """Reference for `find_modulus`: the first monic f of degree m, in
    high-degree-first order, that no monic g of degree 1..m/2 divides."""
    for high_first in itertools.product(range(p), repeat=m):
        f = tuple(reversed(high_first)) + (1,)
        if all(poly_rem(f, low + (1,), p)
               for d in range(1, m // 2 + 1)
               for low in itertools.product(range(p), repeat=d)):
            return f
