import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagwalks import DiagonalSystem, build_field, kth_power_residues
from diagwalks import field as field_mod
from diagwalks.errors import (
    BadDecomposition,
    BadParameters,
    DependentBasis,
    EnumerationTooLarge,
    FieldTooLarge,
    KDoesNotDivide,
    NotPrime,
)
from diagwalks.field import (
    PackedRing,
    SubfieldMap,
    factorize,
    find_modulus,
    is_prime,
)

from conftest import (coordinates, fields_under, list_solver,
                      order_by_multiplication, reconstruct, schoolbook_mul,
                      smallest_irreducible, solve_list)


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_prime_field_f3():
    f = build_field(3, 1)
    assert f.q == 3
    assert f.omega_idx == 2  # smallest primitive root mod 3


def test_prime_field_f2():
    f = build_field(2, 1)
    assert f.q == 2
    assert f.omega_idx == 1


def test_f9_multiplicative_order():
    f = build_field(3, 2)
    for x in range(1, 9):
        assert f.pow_idx(x, 8) == 1


def test_modulus_deterministic():
    # x^2 + 1 is the smallest monic irreducible over F_3 (high-degree-first)
    assert find_modulus(3, 2) == (1, 0, 1)
    assert build_field(3, 2).modulus == build_field(3, 2).modulus


def test_modulus_is_the_smallest_irreducible_for_every_field():
    # Rabin's test against trial division by every monic divisor of degree
    # up to m/2, on every field under the cap with p < 2048 (551 of them)
    fields = fields_under()
    assert len(fields) == 551
    for p, m in fields:
        assert find_modulus(p, m) == smallest_irreducible(p, m), (p, m)


def test_omega_is_the_smallest_primitive_index():
    # by repeated multiplication, on every field with q <= 2^10: omega has
    # order q - 1 and no smaller index does
    for p, m in fields_under(1 << 10):
        field = build_field(p, m)
        assert order_by_multiplication(field.omega_idx, field.mul_idx,
                                       1) == field.q - 1, (p, m)
        for i in range(1, field.omega_idx):
            assert order_by_multiplication(i, field.mul_idx, 1) < field.q - 1


def test_a_field_factors_q_minus_1_once(monkeypatch):
    # the primitive search once factored q - 1 = 923,520 for each of the
    # 34 candidates of GF(31^4)
    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(field_mod, "factorize", counted)
    for p, m, omega in [(31, 4, 34), (2, 20, 2), (3, 12, 14), (1013, 2, 1019)]:
        assert build_field(p, m).omega_idx == omega, (p, m)
        assert calls.count(p**m - 1) == 1, (p, m)


def test_rabin_refuses_a_product_of_factors_of_degree_dividing_m():
    # f = (x+1)(x^2+x+1)(x^3+x+1) = 1 + x + x^4 + x^6 over F_2 has
    # x^(2^6) = x, and x^(2^3), x^(2^2) are not x: a second step that only
    # asked x^(p^(m/r)) != x would accept it, but gcd(x^(2^3) - x, f) and
    # gcd(x^(2^2) - x, f) are not 1
    ring = PackedRing(2, (1, 1, 0, 0, 1, 0, 1))
    x = ring._word(2)
    assert ring._power(x, 2**6) == x
    assert ring._power(x, 2**3) != x and ring._power(x, 2**2) != x
    assert not ring.is_field()
    assert PackedRing(2, find_modulus(2, 6)).is_field()
    # x^2 + 1 = (x+1)^2 is not squarefree, so it fails the first step
    assert not PackedRing(2, (1, 0, 1)).is_field()


def test_modulus_search_past_the_field_cap_is_fast():
    # on a 2-vCPU machine, trial division by every divisor of degree up to
    # 16 took about 2.8 s, and Rabin's test takes about 0.1 s
    started = time.perf_counter()
    f = find_modulus(2, 32)
    assert time.perf_counter() - started < 1
    assert f == (1, 0, 1, 1, 0, 0, 0, 1) + (0,) * 24 + (1,)


def test_arithmetic_exhaustive(f9, f25, f64):
    for f in (f9, f25, f64):
        n, x, seen = f.q - 1, 1, []
        for e in range(n):
            seen.append(x)
            assert f.pow_idx(f.omega_idx, e) == x
            x = f.mul_idx(x, f.omega_idx)
        # omega has order exactly q - 1: its powers hit each nonzero once
        assert x == 1
        assert sorted(seen) == list(range(1, f.q))
        for y in range(f.q):
            assert f.pow_idx(y, 0) == 1
    with pytest.raises(ValueError, match="negative exponent"):
        f9.pow_idx(f9.omega_idx, -1)
    for x in range(9):
        for y in range(9):
            for z in range(9):
                assert f9.mul_idx(x, f9.add_idx(y, z)) == f9.add_idx(
                    f9.mul_idx(x, y), f9.mul_idx(x, z))


def test_mul_idx_against_schoolbook_every_pair(f9, f25, f64):
    # every pair of five fields, m = 2, 3 and 4 at odd p, m = 6 at p = 2.
    # In GF(125), 99 * 99 fills a low slot to 64 = 2^(B-1) after the
    # folds, so one bit less than B would carry
    for field in (f9, f25, f64, build_field(3, 4), build_field(5, 3)):
        for i in range(field.q):
            for j in range(field.q):
                assert field.mul_idx(i, j) == schoolbook_mul(field, i, j), \
                    (field, i, j)


@pytest.mark.parametrize("p, m", [(7, 3), (1021, 2), (2, 20), (3, 12),
                                  (1048573, 1)])
def test_mul_idx_against_schoolbook_sampled(p, m):
    # the slot-width extremes: the widest slots (p near 2^10 and 2^20)
    # and the most slots (m = 20 and 12). (q-1)^2, all digits p-1 on
    # both sides, fills the middle product slot to its bound m(p-1)^2
    field = build_field(p, m)
    top = field.q - 1
    rng = random.Random(22)
    pairs = [(top, top), (top, 1), (0, top)] + [
        (rng.randrange(field.q), rng.randrange(field.q)) for _ in range(500)]
    for i, j in pairs:
        assert field.mul_idx(i, j) == schoolbook_mul(field, i, j), (i, j)
    x = rng.randrange(1, field.q)
    assert field.pow_idx(x, field.q - 1) == 1
    assert field.pow_idx(x, field.q) == x


def test_add_and_neg_against_digit_sums(f9, f64):
    # digit by digit mod p, every pair; XOR for p = 2
    for field in (f9, f64, build_field(7, 2)):
        p = field.p
        for i in range(field.q):
            assert field.neg_idx(i) == field.index_of(
                -c for c in field.digits(i))
            for j in range(field.q):
                assert field.add_idx(i, j) == field.index_of(
                    a + b for a, b in zip(field.digits(i),
                                          field.digits(j))), (p, i, j)
                assert field.sub_idx(i, j) == field.index_of(
                    a - b for a, b in zip(field.digits(i),
                                          field.digits(j))), (p, i, j)


def test_digit_codec_round_trips_on_the_largest_fields():
    # the most slots: m = 20 and 12; digits, index_of and every element
    # operation read the packed word, but a sum for p = 2, a XOR
    for p, m in [(2, 20), (3, 12)]:
        field = build_field(p, m)
        rng = random.Random(33)
        for _ in range(300):
            i, j = rng.randrange(field.q), rng.randrange(field.q)
            assert field.index_of(field.digits(i)) == i
            assert len(field.digits(i)) == m
            assert field.add_idx(field.sub_idx(i, j), j) == i
            assert field.add_idx(i, field.neg_idx(i)) == 0
        # numpy coefficients fill slots past bit 63 as Python ints do
        top = field.q - 1
        assert field.index_of(np.array(field.digits(top))) == top
    with pytest.raises(BadParameters, match="coefficient=1.5"):
        build_field(3, 2).index_of([1.5, 0])
    # more than m coefficients used to spell an index >= q: 16 and 27 in GF(9)
    for coeffs in ([1, 2, 1], [0, 0, 0, 1], [1, 0, 0], iter(range(10**9))):
        with pytest.raises(BadParameters, match="more than m=2 coefficients"):
            build_field(3, 2).index_of(coeffs)


def test_index_arithmetic_reads_m_digits_of_any_int(f9):
    # like `digits`, the unchecked packed loops take the m low base-p
    # digits, so -1 (digits 2, 2) or 17 (digits 2, 2, 1) acts as 8 and
    # ends; a loop run until the index is 0 never ends on -1. pow_idx
    # admits its element and refuses them.
    for bad in (-1, 17):
        assert f9.mul_idx(bad, 2) == f9.mul_idx(8, 2)
        assert f9.add_idx(bad, 1) == f9.add_idx(8, 1)
        assert f9.neg_idx(bad) == f9.neg_idx(8)
        assert f9.sub_idx(bad, 1) == f9.sub_idx(8, 1)
        assert f9.sub_idx(1, bad) == f9.sub_idx(1, 8)
        assert f9.digits(bad) == f9.digits(8) == (2, 2)
        with pytest.raises(BadParameters, match=f"index {bad} out of range"):
            f9.pow_idx(bad, 3)
    # neg_idx and sub_idx read the word at p = 2 too; add_idx keeps the m
    # low bits of its XOR
    f8 = build_field(2, 3)
    for bad in (-1, 15):
        assert f8.neg_idx(bad) == f8.sub_idx(0, bad) == 7
        assert f8.add_idx(bad, 0) == f8.add_idx(0, bad) == 7
        assert f8.add_idx(bad, 5) == f8.add_idx(7, 5) == 2


def test_pow_idx_admits_its_arguments(f9):
    with pytest.raises(BadParameters, match="index 100 out of range"):
        f9.pow_idx(100, 2)
    with pytest.raises(BadParameters, match="exponent=2.5 is not an integer"):
        f9.pow_idx(1, 2.5)
    assert f9.pow_idx(np.int64(3), np.int64(2)) == f9.pow_idx(3, 2)


def test_add_table_is_symmetric(f9, f64):
    # addition commutes, so the GP-graph's table is symmetric
    for field in (f9, f64, build_field(7, 3)):
        table = field.add_table
        assert (table == table.T).all()


def test_add_table_matches_add_idx():
    # every pair of every field with q <= 343, and seeded pairs of GF(2^12)
    for p, m in fields_under(343):
        field = build_field(p, m)
        idx = np.arange(field.q)
        want = np.frompyfunc(field.add_idx, 2, 1)(idx[:, None], idx)
        table = field.add_table
        assert table.dtype == np.int16 and table.shape == (field.q, field.q)
        assert np.array_equal(table, want.astype(np.int64)), (p, m)
    field = build_field(2, 12)
    table = field.add_table
    assert table.dtype == np.int16
    rng = random.Random(34)
    for _ in range(20000):
        i, j = rng.randrange(field.q), rng.randrange(field.q)
        assert table[i, j] == field.add_idx(i, j), (i, j)


def test_add_table_peaks_at_the_table():
    # the build holds the table and the two half-digit tables, of q p and
    # q / p entries on GF(3^7): 0.15% more
    field = build_field(3, 7)
    tracemalloc.start()
    try:
        table = field.add_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int16
    assert peak <= 1.1 * table.nbytes


def test_add_table_capped_in_bytes():
    # q = 7^6: q^2 int32 entries are about 55 GB; refused before allocating
    f = build_field(7, 6)
    tracemalloc.start()
    try:
        with pytest.raises(FieldTooLarge, match="55365148804 bytes"):
            f.add_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not [v for v in vars(f).values() if isinstance(v, np.ndarray)]
    assert peak < 1 << 16


def test_field_errors():
    for p in (4, 1, 0, -3):
        with pytest.raises(NotPrime):
            build_field(p, 1)
    with pytest.raises(FieldTooLarge):
        build_field(2, 25)


@pytest.mark.parametrize("p, m", [(2, 10**5), (10**18 + 3, 1), (10**5000, 1)],
                         ids=["2^100000", "(10^18+3)^1", "(10^5000)^1"])
def test_field_order_refused_before_primality(no_number_theory, p, m):
    # p^m is never formed past the cap, and no decimal of 4,300 digits is
    # printed: the message stays short (the CLI lifts Python's digit limit
    # for the whole process, so its length is what is asserted)
    with pytest.raises(FieldTooLarge) as info:
        build_field(p, m)
    assert len(str(info.value)) < 200


def test_element_arithmetic(f9):
    for x in range(f9.q):
        assert f9.add_idx(x, f9.neg_idx(x)) == 0
        assert f9.mul_idx(x, 1) == x
    assert f9.pow_idx(f9.omega_idx, 8) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_f25(i, j, k):
    f = build_field(5, 2)
    add, mul = f.add_idx, f.mul_idx
    assert add(i, j) == add(j, i)
    assert mul(i, j) == mul(j, i)
    assert add(add(i, j), k) == add(i, add(j, k))
    assert mul(mul(i, j), k) == mul(i, mul(j, k))
    assert mul(i, add(j, k)) == add(mul(i, j), mul(i, k))


def test_kth_power_residues_examples(f9):
    squares = kth_power_residues(f9, 2)
    assert len(squares) == 4
    assert sorted(squares) == sorted(
        {f9.mul_idx(x, x) for x in range(1, 9)}
    )
    assert len(kth_power_residues(f9, 1)) == 8
    assert kth_power_residues(f9, 8) == {1}
    with pytest.raises(KDoesNotDivide):
        kth_power_residues(f9, 3)


def test_residues_capped_before_the_first_product(monkeypatch):
    # R_1 of GF(2^20) took 14.1 s for 1,048,575 products
    field = build_field(2, 20)
    started = time.perf_counter()
    with pytest.raises(EnumerationTooLarge, match=(
            f"k=1 in GF\\(1048576\\).*1048575.*{field_mod.MAX_RESIDUES}")):
        kth_power_residues(field, 1)
    assert time.perf_counter() - started < 0.1
    f25 = build_field(5, 2)
    monkeypatch.setattr(field_mod, "MAX_RESIDUES", 24 // 3)
    assert len(kth_power_residues(f25, 3)) == 8
    monkeypatch.setattr(field_mod, "MAX_RESIDUES", 24 // 3 - 1)
    with pytest.raises(EnumerationTooLarge):
        kth_power_residues(f25, 3)


def test_residues_closed_under_multiplication(f9):
    squares = kth_power_residues(f9, 2)
    for x in squares:
        for y in squares:
            assert f9.mul_idx(x, y) in squares


def test_residues_match_exp_strides(f25):
    for k in (2, 3, 4, 6):
        got = kth_power_residues(f25, k)
        expect = {f25.pow_idx(f25.omega_idx, j * k) for j in range(24 // k)}
        assert got == expect


def test_frobenius_fixed_points(f64):
    # the a-fold Frobenius fixes exactly p^a elements
    for a in (1, 2, 3):
        fixed = [x for x in range(64) if f64.pow_idx(x, 2**a) == x]
        assert len(fixed) == 2**a


def test_subfield_map_basis_vectors(f9):
    k = 2
    w_k = f9.pow_idx(f9.omega_idx, k)
    smap = SubfieldMap(f9, 1, 2, k)
    assert coordinates(smap, 1) == (1, 0)
    assert coordinates(smap, w_k) == (0, 1)
    assert coordinates(smap, 0) == (0, 0)


def test_subfield_roundtrip_exhaustive(f64):
    smap = SubfieldMap(f64, 2, 3, 7)
    for x in range(64):
        coords = coordinates(smap, x)
        assert reconstruct(smap, coords) == x
        # coordinates really live in the subfield (Frobenius-fixed)
        for c in coords:
            assert f64.pow_idx(c, 2**2) == c


def test_subfield_map_is_bijection(f9):
    smap = SubfieldMap(f9, 1, 2, 2)
    seen = {coordinates(smap, x) for x in range(9)}
    assert len(seen) == 9


def test_bad_decomposition(f9):
    with pytest.raises(BadDecomposition):
        SubfieldMap(f9, 2, 2, 2)


def _subfield_maps(max_q):
    """SubfieldMaps for every (p, a, b), b > 1, with p^(ab) <= max_q: with
    k = 1, where {omega^i} is always a basis since omega generates the
    field over GF(p^a), and with the diagonal exponent where the basis
    it gives is independent."""
    for p in (n for n in range(2, max_q) if is_prime(n) and n * n <= max_q):
        for m in range(2, max_q.bit_length()):
            if p**m > max_q:
                break
            field = build_field(p, m)
            for a in (a for a in range(1, m) if m % a == 0):
                b, u = m // a, (m // a) * (p**a - 1)
                yield SubfieldMap(field, a, b, 1)
                if (p**m - 1) % u == 0:
                    try:
                        yield SubfieldMap(field, a, b, (p**m - 1) // u)
                    except DependentBasis:
                        pass


def test_packed_solve_exhaustive_small_fields():
    # every element of every field with q <= 4096 against the list
    # product, including the uneven half splits of 2^9 and 3^7
    seen = set()
    for smap in _subfield_maps(4096):
        field = smap.field
        seen.add((field.p, field.m))
        solve = list_solver(smap)
        for x in range(field.q):
            assert solve_list(smap, x) == solve(x), (field, smap.a, x)
    assert {(2, 9), (2, 12), (3, 7), (61, 2)} <= seen


@pytest.mark.parametrize("p,a,b", [(7, 1, 6), (3, 6, 2), (2, 4, 5)])
def test_packed_solve_sampled_large_fields(p, a, b):
    # digits split into halves 3+3, 6+6 and 10+10
    smap = DiagonalSystem(p, a, b).view
    solve = list_solver(smap)
    rng = random.Random(20)
    for x in [0, 1, smap.field.q - 1] + [rng.randrange(smap.field.q)
                                         for _ in range(2000)]:
        assert solve_list(smap, x) == solve(x), x


@pytest.mark.parametrize("p,a,b,sizes", [
    (7, 1, 6, [343, 343]),
    (3, 6, 2, [729, 729]),
    (2, 4, 5, [1024, 1024]),
])
def test_chunk_tables_bounded(p, a, b, sizes):
    # one table per half of the m digits: p^ceil(m/2) and p^floor(m/2)
    smap = DiagonalSystem(p, a, b).view
    m = smap.field.m
    assert [len(t) for t in smap._tables] == sizes
    assert sizes == [p ** -(-m // 2), p ** (m // 2)]


def test_half_tables_peak_under_the_cap():
    # by arithmetic alone, no field built: the larger half table of any
    # field with m >= 2 under the cap peaks at GF(101^3), 10,201 entries
    largest = max((p ** -(-m // 2), p, m) for p, m in fields_under()
                  if m >= 2)
    assert largest == (10201, 101, 3)


@pytest.mark.parametrize("m", [0, -1])
def test_check_field_refuses_m_below_one(m):
    with pytest.raises(BadParameters, match=f"^m={m} must be >= 1$"):
        field_mod.check_field(3, m)


def test_field_repr_names_modulus_and_generator():
    assert repr(build_field(3, 2)) == (
        "FiniteField(p=3, m=2, modulus=(1, 0, 1), omega=4)")
