import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from diagwalks import (
    DiagonalSystem,
    brute_force_count,
    brute_force_distribution,
    build_field,
    convolution_distribution,
    hamming_walks,
    kth_power_residues,
    walk_solution_count,
)
from diagwalks import cli, diagonal, errors, neps
from diagwalks import field as field_mod
from diagwalks.cli import parse_element
from diagwalks.diagonal import diagonal_exponent
from diagwalks.errors import (
    BadParameters,
    CountTooLarge,
    EnumerationTooLarge,
    FieldTooLarge,
    KDoesNotDivide,
    KNotInteger,
    NepsWalkTooLarge,
    NotPrime,
    NotPrimitiveDivisor,
)
from diagwalks.field import FiniteField
from diagwalks.verify import FormulaRows, check_walk_bridge

from conftest import hamming_distance_walks, reconstruct, subfield_basis


def dense(row, q):
    """A convolution row as q weights, 0 at every element it does not reach."""
    return [row.get(alpha, 0) for alpha in range(q)]


def test_spot_values_f9():
    # pre-verified with a standalone enumeration before the build
    assert DiagonalSystem(3, 1, 2).count_nonzero(1, 2) == 4
    assert DiagonalSystem(3, 1, 2).count_all(0, 2) == 17


@pytest.mark.parametrize("p,a,b", [(3, 1, 2), (2, 2, 3)])
def test_count_all_matches_binomial_sum(p, a, b):
    # the running binomial C(s,i) = C(s,i-1)(s-i+1)/i against math.comb
    system = DiagonalSystem(p, a, b)
    for alpha in range(system.q):
        nonzero = [system.count_nonzero(alpha, i) for i in range(61)]
        for s in range(61):
            expected = (alpha == 0) + sum(
                math.comb(s, i) * nonzero[i] for i in range(1, s + 1))
            assert system.count_all(alpha, s) == expected, (alpha, s)


def _count_solves(monkeypatch, system):
    """Wrap the pattern solve of this one system's view; return its calls."""
    calls = []
    solve = system.view.pattern_idx

    def counted(x_idx):
        calls.append(x_idx)
        return solve(x_idx)

    monkeypatch.setattr(system.view, "pattern_idx", counted)
    return calls


def test_a_run_of_queries_on_one_alpha_solves_it_once(monkeypatch):
    system = DiagonalSystem(7, 1, 6)
    calls = _count_solves(monkeypatch, system)
    system.count_all(1234, 20)
    assert calls == [1234]
    calls.clear()
    for alpha in (5, 5, 6, 5):
        system.count_nonzero(alpha, 3)
    assert calls == [5, 6, 5]
    # any alpha but an int goes through as_index before it meets the memo
    want = system.count_nonzero(5, 3)
    assert system.count_nonzero(np.int64(5), 3) == want
    assert system.count_nonzero(5, np.int64(3)) == want
    assert calls == [5, 6, 5]
    assert system.count_nonzero(True, 3) == system.count_nonzero(1, 3)
    assert system.count_all(True, 3) == system.count_all(1, 3)
    assert calls == [5, 6, 5, 1]
    system.count_nonzero(5, 3)
    # any alpha but an int is checked before the memo is read, hit or
    # miss: an array equal to the warm index is refused, not read as a
    # hit; an int out of range reaches the solve, which refuses it
    for bad in (5.0, "5", np.array([5]), system.q, -1):
        with pytest.raises(BadParameters):
            system.count_nonzero(bad, 3)
        with pytest.raises(BadParameters):
            system.count_all(bad, 3)
    with pytest.raises(BadParameters, match="r=-1"):
        system.count_nonzero(5, -1)
    assert calls == [5, 6, 5, 1, 5, system.q, -1]
    # a refused alpha leaves the memo on 5
    system.count_nonzero(5, 3)
    assert calls == [5, 6, 5, 1, 5, system.q, -1]


def test_a_miss_on_an_int_alpha_checks_it_once(monkeypatch):
    # on a miss the pattern solve admits an int alpha, and nothing else
    # checks it; a hit checks nothing
    system = DiagonalSystem(7, 1, 6)
    want = system.count_nonzero(1234, 3)
    system.count_nonzero(5, 3)
    calls = []
    for module in (diagonal, field_mod):
        def counted(field, x, check=module.as_index):
            calls.append(x)
            return check(field, x)

        monkeypatch.setattr(module, "as_index", counted)
    assert system.count_nonzero(1234, 3) == want
    assert calls == [1234]
    system.count_nonzero(1234, 2)
    assert calls == [1234]


@pytest.mark.parametrize("p,a,b", [(7, 1, 3), (2, 2, 3), (7, 1, 6)])
def test_memo_matches_a_memo_free_reference(p, a, b):
    system = DiagonalSystem(p, a, b)
    view, k, Q = system.view, system.k, p**a

    def nonzero(alpha, r):
        return k**r * hamming_walks(b, Q, r, view.pattern_idx(alpha))

    rng = random.Random(20)
    pool = [0, 1, rng.randrange(system.q), system.q - 1]
    for _ in range(500):
        alpha = rng.choice(pool) if rng.random() < 0.7 else rng.randrange(system.q)
        n = rng.randrange(13)
        if rng.random() < 0.5:
            assert system.count_nonzero(alpha, n) == nonzero(alpha, n)
        else:
            want = (alpha == 0) + sum(math.comb(n, i) * nonzero(alpha, i)
                                      for i in range(1, n + 1))
            assert system.count_all(alpha, n) == want, (alpha, n)


def test_count_all_admits_its_walk_sums_before_the_first_term(monkeypatch):
    # M_s at the bit cap of (3,1,2) once ran for tens of minutes, s N_i
    # calls of up to s*log2(q-1) bits each
    system = DiagonalSystem(3, 1, 2)
    with monkeypatch.context() as patch:
        def refuse(*args):
            raise RuntimeError("N_i was called past the cap")

        patch.setattr(DiagonalSystem, "count_nonzero", refuse)
        started = time.perf_counter()
        with pytest.raises(NepsWalkTooLarge, match="MAX_WORK"):
            system.count_all(0, 330788)
        assert time.perf_counter() - started < 0.1
        # alpha is admitted first, as before the work was priced
        with pytest.raises(BadParameters, match="element=2.5"):
            system.count_all(2.5, 330788)
    s, want, binom = 10000, 1, 1
    got = system.count_all(0, s)
    for i in range(1, s + 1):
        binom = binom * (s - i + 1) // i
        want += binom * system.count_nonzero(0, i)
    assert binom == 1 and got == want


def _refuse_n_i(*args):
    raise RuntimeError("N_i was called")


def test_count_all_is_priced_against_the_kernel_cap(monkeypatch):
    # M_50 on (3,1,2), b = 2 and bitlen(b(Q-1) - 1) = 2: its 50 sums price
    # at 3(2*1275 + 63*50)//64 = 267 words, read against errors.MAX_WORK
    # as it is when the call runs
    system = DiagonalSystem(3, 1, 2)
    want = system.count_all(0, 50)
    with monkeypatch.context() as patch:
        patch.setattr(errors, "MAX_WORK", 266)
        patch.setattr(DiagonalSystem, "count_nonzero", _refuse_n_i)
        with pytest.raises(NepsWalkTooLarge, match="s=50 .* 267 words, "
                           "over the cap MAX_WORK of 266"):
            system.count_all(0, 50)
    neps.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(errors, "MAX_WORK", 267)
        assert system.count_all(0, 50) == want


@pytest.mark.parametrize("triple, s", [((3, 1, 2), 14573), ((7, 1, 6), 5509)])
def test_count_all_admits_up_to_its_last_priced_length(monkeypatch, triple, s):
    system = DiagonalSystem(*triple)
    monkeypatch.setattr(DiagonalSystem, "count_nonzero", _refuse_n_i)
    with pytest.raises(RuntimeError, match="N_i was called"):
        system.count_all(0, s)
    with pytest.raises(NepsWalkTooLarge, match=f"s={s + 1} .*MAX_WORK"):
        system.count_all(0, s + 1)


def test_max_n_reads_the_count_cap_at_construction(monkeypatch):
    # with 64 bits, N_30 <= 8^30 could pass the cap: the fast path of
    # count_nonzero must hand r = 30 to check_length
    monkeypatch.setattr(errors, "MAX_COUNT_BITS", 64)
    system = DiagonalSystem(3, 1, 2)
    with pytest.raises(CountTooLarge, match="r=30 .*MAX_COUNT_BITS of 64"):
        system.count_nonzero(0, 30)


def test_n1_residue_membership(roster_systems):
    system = roster_systems[(3, 1, 2)]
    residues = kth_power_residues(system.field, system.k)
    for alpha in range(9):
        expect = system.k if alpha in residues else 0
        assert system.count_nonzero(alpha, 1) == expect


def test_nonsquare_has_no_single_term_solution(roster_systems):
    system = roster_systems[(3, 1, 2)]
    nonsquares = set(range(1, 9)) - kth_power_residues(system.field, 2)
    for nu in nonsquares:
        assert system.count_nonzero(nu, 1) == 0


def test_m1_zero_has_only_trivial_solution(roster_systems):
    for system in roster_systems.values():
        assert system.count_all(0, 1) == 1


def test_k_not_integer():
    with pytest.raises(KNotInteger) as excinfo:
        DiagonalSystem(2, 1, 2)
    assert excinfo.value.report is not None
    assert not excinfo.value.report.k_integer


@pytest.mark.parametrize("p, u, q_minus_1, h", [(3, 8, 80, 2), (7, 24, 2400, 2)])
def test_not_primitive_divisor(p, u, q_minus_1, h):
    # k is an integer for (p, 1, 4), but u = 4(p-1) divides p^2 - 1
    with pytest.raises(NotPrimitiveDivisor) as excinfo:
        DiagonalSystem(p, 1, 4)
    message = str(excinfo.value)
    assert f"={u} " in message
    assert f"p^m-1={q_minus_1}" in message
    assert f"h={h} " in message


def test_formula_path_builds_no_field_table(no_add_table):
    system = DiagonalSystem(7, 1, 6)
    field = system.field
    # the modulus and omega search order fixes every element index
    assert field.modulus == (2, 0, 0, 0, 0, 0, 1)
    assert field.omega_idx == 8
    walks = hamming_distance_walks(system.b, 7, 10)
    assert system.count_nonzero(0, 10) == system.k**10 * walks[10][0]
    for alpha in (0, 1, 8, 1234, 117648):
        for r in range(11):
            system.count_nonzero(alpha, r)
            system.count_all(alpha, r)
    assert parse_element(field, "pow:12345") not in (0, 1)
    assert parse_element(field, "pow:117648") == 1
    built = [name for name, value in vars(field).items()
             if isinstance(value, (list, tuple, np.ndarray))
             and len(value) >= field.q]
    assert not built, f"tables built on the formula path: {built}"


def test_bad_parameters():
    with pytest.raises(BadParameters):
        DiagonalSystem(3, 1, 1)


@pytest.mark.parametrize("p", [1, -3, 0])
def test_p_must_be_prime_before_any_arithmetic(p):
    # p = 1 used to divide by zero, p = -3 to fail primitivity and p = 0
    # integrality, each before primality was looked at
    with pytest.raises(NotPrime, match=f"p={p} is not prime"):
        diagonal_exponent(p, 1, 2)
    with pytest.raises(NotPrime, match=f"p={p} is not prime"):
        DiagonalSystem(p, 1, 2)


@pytest.mark.parametrize("p, a, b", [(10**18 + 3, 1, 2), (2, 1, 10**6),
                                     (3, 1000, 2)])
def test_field_order_refused_before_any_number_theory(no_number_theory,
                                                      p, a, b):
    # unpatched, trial division of p and the factoring of phi(2(3^1000-1))
    # each ran for more than 5 s before this refusal; patched, no
    # primality, integrality or order test runs before it
    with pytest.raises(FieldTooLarge, match=f"m={a * b} exceeds"):
        diagonal_exponent(p, a, b)
    with pytest.raises(FieldTooLarge, match=f"m={a * b} exceeds"):
        DiagonalSystem(p, a, b)


def test_element_must_be_an_integer_index(roster_systems, f9):
    system = roster_systems[(3, 1, 2)]
    assert system.count_nonzero(np.int64(1), 2) == 4
    for bad in (1.5, "3", None):
        with pytest.raises(BadParameters, match=f"element={bad!r} is not"):
            system.count_nonzero(bad, 2)
        with pytest.raises(BadParameters, match="is not an integer"):
            brute_force_count(f9, 2, bad, 2)
        with pytest.raises(BadParameters, match="is not an integer"):
            walk_solution_count(f9, 2, 0, bad, 2)
    with pytest.raises(BadParameters, match="index 9 out of range"):
        system.count_nonzero(9, 2)


@pytest.mark.parametrize("oracle", [
    lambda field: brute_force_distribution(field, 2, -1),
    lambda field: convolution_distribution(field, 2, -1),
    lambda field: walk_solution_count(field, 2, 0, 1, -1),
], ids=["brute", "convolution", "walk"])
def test_oracles_refuse_negative_length(no_add_table, oracle):
    # refused before any field table is read
    field = build_field(3, 2)
    with pytest.raises(BadParameters, match="=-1 must be >= 0"):
        oracle(field)


def test_brute_force_r0(f9):
    assert brute_force_count(f9, 2, 0, 0) == 1
    assert brute_force_count(f9, 2, 1, 0) == 0


def test_brute_force_frozen_values(f9):
    assert brute_force_count(f9, 2, 1, 2) == 4
    assert brute_force_count(f9, 2, 0, 2) == 16


def test_enumeration_cap(no_add_table):
    field = build_field(3, 2)
    with pytest.raises(EnumerationTooLarge):
        brute_force_distribution(field, 2, 12)  # 8^12 > MAX_ENUM_TUPLES


def test_enumeration_cap_counts_every_written_value(no_add_table):
    # GF(2) has one nonzero tuple of each length, but a pass to r = 10^8
    # would write 10^8 prefix sums and (10^8 + 1) rows of q entries; the
    # length bound refuses it before the writes are counted
    field = build_field(2, 1)
    with pytest.raises(EnumerationTooLarge, match="over the cap"):
        brute_force_distribution(field, 1, 10**8)


def test_enumeration_cap_bounds_the_lengths(no_add_table):
    # the length bound runs before the writes are counted, so it refuses
    # r = 27 on any base; GF(2) without zeros writes 3r + 2 values and
    # r(r+1) bins, so no other bound refuses it
    field = build_field(2, 1)
    for case in ((field, 1, 27), (build_field(2, 2), 1, 27, False)):
        with pytest.raises(EnumerationTooLarge,
                           match=r"bit_length\(\) - 1 of 26$"):
            brute_force_distribution(*case)
    assert brute_force_distribution(field, 1, 26)[:, 1].tolist() == \
        [t % 2 for t in range(27)]
    with pytest.raises(EnumerationTooLarge):
        brute_force_distribution(build_field(2, 2), 1, 26, False)


@pytest.mark.parametrize("k", [0, 3, 16])
@pytest.mark.parametrize("r", [0, 2])
def test_brute_force_refuses_k_not_dividing_q_minus_1(no_add_table, k, r):
    # the same inputs the convolution oracle refuses; nothing is built
    field = build_field(3, 2)
    for oracle in (brute_force_distribution, convolution_distribution):
        with pytest.raises(KDoesNotDivide, match=f"k={k} is not a positive"):
            oracle(field, k, r)


def test_brute_force_reads_the_capped_table_before_the_powers(monkeypatch):
    # GF(2^16): 65,535 powers took 3.8 s before a refusal; the powers cap
    # now refuses them before the first
    field = build_field(2, 16)
    monkeypatch.setattr(field, "pow_idx", lambda *args: 1 / 0)
    with pytest.raises(EnumerationTooLarge, match="65535 field powers"):
        brute_force_distribution(field, 1, 1)
    assert brute_force_distribution(field, 1, 0)[0, 0] == 1


def test_brute_force_never_reads_the_add_table(no_add_table):
    field = build_field(7, 2)
    dist = brute_force_distribution(field, 4, 3)
    assert list(dist[3]) == dense(convolution_distribution(field, 4, 3)[3],
                                  field.q)


def test_enumeration_cap_counts_the_bins(monkeypatch):
    # GF(2^12) at r = 2 counts in 3^12 bins, two rows of them and the map
    # from bins to elements
    field = build_field(2, 12)
    writes = 3 * 4096 + 3 * 3**12 + 4095 + 4095**2
    monkeypatch.setattr(diagonal, "MAX_ENUM_TUPLES", writes - 1)
    with pytest.raises(EnumerationTooLarge, match=f"at least {writes} "):
        brute_force_distribution(field, 1, 2)


def enumerated_rows(field, k, r, restrict_nonzero=True):
    """Row t counts the t-tuples of the domain by the field sum of their
    k-th powers, one itertools tuple at a time."""
    domain = range(1 if restrict_nonzero else 0, field.q)
    powers = [field.pow_idx(x, k) for x in domain]
    rows = []
    for t in range(r + 1):
        row = [0] * field.q
        for summands in itertools.product(powers, repeat=t):
            total = 0
            for y in summands:
                total = field.add_idx(total, y)
            row[total] += 1
        rows.append(row)
    return rows


def test_brute_force_holds_bins_not_prefix_sums():
    # GF(7^3), k = 19: 342^3 tuples whose packed sums land in 19^3 bins.
    # Row t-1 is held as its nonzero bins, so the pass stays below one
    # array of the 342^2 prefix sums of length 2
    field = build_field(7, 3)
    want = enumerated_rows(field, 19, 2)
    want.append(dense(convolution_distribution(field, 19, 3)[3], field.q))
    tracemalloc.start()
    try:
        dist = brute_force_distribution(field, 19, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.tolist() == want and int(dist[3].sum()) == 342**3
    sums = 342**2 * np.dtype(np.intp).itemsize
    assert peak < sums, f"peak {peak} bytes, {sums} of prefix sums"


def test_brute_force_weights_each_distinct_word():
    # GF(9), k = 2, with zeros: nine summand values pack to five words, 0
    # once and each square twice. Step 1 loops over the one bin of row 0,
    # later steps over the five words, and the pass holds less than the
    # 9^4 prefix sums of length 4
    field, r = build_field(3, 2), 5
    want = enumerated_rows(field, 2, r, False)
    tracemalloc.start()
    try:
        dist = brute_force_distribution(field, 2, r, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.tolist() == want
    sums = 9**4 * np.dtype(np.intp).itemsize
    assert peak < sums, f"peak {peak} bytes, {sums} of prefix sums"


@pytest.mark.parametrize("p, m, k", [
    (2, 2, 1), (2, 2, 3), (2, 3, 1), (3, 2, 2), (3, 2, 4),
])
@pytest.mark.parametrize("restrict_nonzero", [True, False])
def test_brute_force_rows_match_direct_enumeration(p, m, k, restrict_nonzero):
    field, r = build_field(p, m), 3
    dist = brute_force_distribution(field, k, r, restrict_nonzero)
    assert dist.shape == (r + 1, field.q)
    assert dist.tolist() == enumerated_rows(field, k, r, restrict_nonzero)


@pytest.mark.parametrize("restrict_nonzero", [True, False])
def test_oracle_rows_agree_on_roster_fields(roster_systems, restrict_nonzero):
    for system in roster_systems.values():
        field, k = system.field, system.k
        brute = brute_force_distribution(field, k, 3, restrict_nonzero)
        conv = convolution_distribution(field, k, 3, restrict_nonzero)
        assert len(conv) == 4
        assert brute.tolist() == [dense(row, field.q) for row in conv], system


def test_convolution_cap_checked_before_any_addition(monkeypatch):
    # (7,1,6): |R_k| = 36 in GF(7^6), so six steps need up to 10,198,332
    # add_idx calls, about a minute in all
    system = DiagonalSystem(7, 1, 6)
    field, k = system.field, system.k
    calls = []
    add_idx = field.add_idx
    monkeypatch.setattr(field, "add_idx",
                        lambda i, j: calls.append(1) or add_idx(i, j))
    with pytest.raises(EnumerationTooLarge, match="10198332"):
        convolution_distribution(field, k, 6)
    assert not calls
    assert convolution_distribution(field, k, 2)[2].get(1234, 0) == \
        system.count_nonzero(1234, 2)
    assert len(calls) == 36 * 37


def test_convolution_byte_cap_counts_rows_of_one_entry(monkeypatch):
    # k = q-1 leaves the one residue 1, so a step makes one add_idx call:
    # 10^7 steps are 10^7 calls, within the cap, but 10^7 rows of one
    # weight 1023^t each, far over the byte cap
    field = build_field(2, 10)
    calls = []
    add_idx = field.add_idx
    monkeypatch.setattr(field, "add_idx",
                        lambda i, j: calls.append(1) or add_idx(i, j))
    with pytest.raises(EnumerationTooLarge,
                       match="^10000000 convolution steps need about .* bytes "
                             "of rows"):
        convolution_distribution(field, 1023, 10**7)
    assert not calls


def test_convolution_caps_checked_before_the_residues(monkeypatch):
    # GF(2^20) with k = 1: ten steps over 2^20 - 1 residues could make
    # about 10^13 add_idx calls; the caps read q and k alone, so R_k is
    # never built
    field = build_field(2, 20)
    monkeypatch.setattr(field, "mul_idx", lambda *args: 1 / 0)
    started = time.perf_counter()
    with pytest.raises(EnumerationTooLarge, match="add_idx calls"):
        convolution_distribution(field, 1, 10)
    assert time.perf_counter() - started < 1


def test_convolution_builds_no_support_at_length_zero():
    # GF(2^16) with k = 1: R_k's 65,535 elements pass field.MAX_SUMMANDS,
    # but no step of a walk of length 0 reads them, so none is built
    field = build_field(2, 16)
    for restrict_nonzero in (True, False):
        assert convolution_distribution(field, 1, 0, restrict_nonzero) == \
            [{0: 1}]


def test_convolution_rows_hold_only_the_reached_elements():
    # the paper's k on GF(2^20): R_k has 75 elements, and row t reaches
    # the elements of Hamming weight <= t, 36,076 of 2^20 at t = 3
    system = DiagonalSystem(2, 4, 5)
    rows = convolution_distribution(system.field, system.k, 3)
    assert [len(row) for row in rows] == [1, 75, 2326, 36076]
    for t, row in enumerate(rows):
        assert sum(row.values()) == (system.q - 1) ** t
        for alpha, weight in row.items():
            assert weight == system.count_nonzero(alpha, t), (t, alpha)


def test_convolution_cap_bounds_the_rows_in_bytes(monkeypatch):
    # row t of GF(4), k = 1, holds four Python ints of about 1.6t bits; at
    # the largest r the byte cap accepts, the rows stay within it, give or
    # take the freed tuples CPython keeps on its free lists (under 128 KiB)
    cap = 1 << 22
    monkeypatch.setattr(diagonal, "MAX_CONVOLUTION_BYTES", cap)
    field = build_field(2, 2)
    field.add_idx(0, 0)

    def accepted(r):
        field.add_idx = lambda i, j: 1 / 0  # the first step stops the pass
        try:
            convolution_distribution(field, 1, r)
        except ZeroDivisionError:
            return True
        except EnumerationTooLarge:
            return False
        finally:
            del field.add_idx

    assert not accepted(4000)
    r = max(t for t in range(0, 4000, 50) if accepted(t))
    while accepted(r + 1):
        r += 1
    assert r > 2000
    tracemalloc.start()
    try:
        rows = convolution_distribution(field, 1, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(rows[r].values()) == 3**r
    assert peak <= cap + (1 << 17), f"peak {peak} bytes at r={r}"


def test_convolution_cli_refuses_rows_over_the_byte_cap():
    # (3,1,2) makes 45 operations a step: 50,000 steps pass the operation
    # cap, but their rows would take gigabytes
    field = build_field(3, 2)
    with pytest.raises(EnumerationTooLarge, match="bytes of rows"):
        convolution_distribution(field, 2, 50_000)
    assert cli.main(["count", "--p", "3", "--a", "1", "--b", "2", "--alpha",
                     "0", "--s", "50000", "--method", "convolution"]) == 2


def test_brute_force_streams_the_last_summand(f25):
    # 24^4 nonzero tuples; holding their sums at once would take more
    # bytes than there are tuples
    tracemalloc.start()
    try:
        dist = brute_force_distribution(f25, 3, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(dist[-1].sum()) == 24**4
    assert list(dist[-1]) == dense(convolution_distribution(f25, 3, 4)[-1],
                                   25)
    assert peak < 24**4, f"peak {peak} bytes"


def test_brute_force_last_stage_buffer_is_bounded():
    # GF(3) with zeros at r = 15: 3^14 prefix sums in R^m = 31 bins. A step
    # holds its row as the counts of its bins, never the sums one by one,
    # so the peak is a few int64 arrays of 31 bins, the 16 x 3 returned
    # rows and a fixed 16 KiB for numpy's and Python's own objects (about
    # 7.5 KB at every r); the 38 MB of sums would pass it a thousandfold
    field, r = build_field(3, 1), 15
    bins, rows = 31, (r + 1) * 3
    bound = 8 * (4 * bins + rows) + (1 << 14)
    tracemalloc.start()
    try:
        dist = brute_force_distribution(field, 1, r, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist[15].tolist() == [3**14] * 3
    assert peak <= bound, f"peak {peak} bytes, bound {bound}"


def test_convolution_r1_is_f(f9):
    residues = kth_power_residues(f9, 2)
    for alpha in range(9):
        expect = 2 if alpha in residues else 0
        assert convolution_distribution(f9, 2, 1)[1].get(alpha, 0) == expect


def test_oracle_mass_conservation(f9, f25):
    for field, k in [(f9, 2), (f25, 3)]:
        q = field.q
        for r in range(4):
            conv = convolution_distribution(field, k, r, True)[-1]
            assert sum(conv.values()) == (q - 1) ** r
            brute = brute_force_distribution(field, k, r, True)[-1]
            assert int(brute.sum()) == (q - 1) ** r
            full = convolution_distribution(field, k, r, False)[-1]
            assert sum(full.values()) == q**r


def test_oracles_agree_f64(f64):
    assert brute_force_count(f64, 7, 1, 3) == \
        convolution_distribution(f64, 7, 3)[3][1]
    brute = brute_force_distribution(f64, 7, 3, True)[-1]
    conv = convolution_distribution(f64, 7, 3, True)[-1]
    assert list(brute) == dense(conv, 64)


def test_walk_solution_count_conventions(f9, monkeypatch):
    residues = kth_power_residues(f9, 2)
    for y in range(9):
        expect = 2 if y in residues else 0
        assert walk_solution_count(f9, 2, 0, y, 1) == expect
    system = DiagonalSystem(3, 1, 2)  # the same field as f9
    for alpha in range(9):
        assert walk_solution_count(f9, 2, 0, alpha, 2) == \
            system.count_nonzero(alpha, 2)

    # a zero-length walk reads no graph, whose q^2 addition table and
    # adjacency would only answer x == y; s, x, y and then k are admitted
    # all the same, in that order
    def refuse(field, k):
        raise RuntimeError("built the GP-graph for a zero-length walk")

    monkeypatch.setattr(diagonal, "gp_graph", refuse)
    assert walk_solution_count(f9, 2, 3, 3, 0) == 1
    assert walk_solution_count(f9, 2, 3, 5, 0) == 0
    assert walk_solution_count(f9, 8, 0, 0, 0) == 1
    with pytest.raises(KDoesNotDivide, match="k=3 "):
        walk_solution_count(f9, 3, 3, 3, 0)
    with pytest.raises(BadParameters, match="element index 9 "):
        walk_solution_count(f9, 3, 9, 3, 0)
    with pytest.raises(BadParameters, match="s=-1 "):
        walk_solution_count(f9, 3, 9, 3, -1)


def test_walk_bridge_example(f9):
    assert walk_solution_count(f9, 2, 0, 1, 2) == 4


def test_walk_bridge_on_gf625_and_gf729():
    for p, a, b in [(5, 1, 4), (3, 3, 2)]:
        system = DiagonalSystem(p, a, b)
        result = check_walk_bridge(system, FormulaRows(system, 3))
        assert result.ok, result


def test_k_power_divides_counts(roster_systems):
    for system in roster_systems.values():
        for r in range(4):
            for alpha in range(0, system.q, max(1, system.q // 11)):
                assert system.count_nonzero(alpha, r) % system.k**r == 0


def test_pattern_dependence(roster_systems):
    # alphas whose zero patterns have equally many zeros get equal counts
    for system in roster_systems.values():
        by_zeros = {}
        for alpha in range(system.q):
            z = sum(system.view.pattern_idx(alpha))
            by_zeros.setdefault(z, []).append(alpha)
        for r in range(4):
            for alphas in by_zeros.values():
                counts = {system.count_nonzero(alpha, r) for alpha in alphas}
                assert len(counts) == 1


def test_convolution_recurrence(roster_systems):
    # N_{r+1}(alpha) = sum over beta in R_k of k * N_r(alpha - beta)
    for key in [(3, 1, 2), (2, 2, 3)]:
        system = roster_systems[key]
        field, k = system.field, system.k
        residues = kth_power_residues(field, k)
        for r in range(3):
            for alpha in range(system.q):
                total = sum(
                    k * system.count_nonzero(field.sub_idx(alpha, beta), r)
                    for beta in residues
                )
                assert system.count_nonzero(alpha, r + 1) == total


def test_partition_identities(roster_systems):
    for system in roster_systems.values():
        q = system.q
        for n in range(4):
            assert sum(
                system.count_nonzero(alpha, n) for alpha in range(q)
            ) == (q - 1) ** n
            assert sum(
                system.count_all(alpha, n) for alpha in range(q)
            ) == q**n


def _second_primitive(field: FiniteField) -> int:
    for idx in range(field.omega_idx + 1, field.q):
        if field._is_primitive(idx):
            return idx
    raise AssertionError("no second primitive element")


@pytest.mark.parametrize("p,a,b", [(3, 1, 2), (2, 2, 3)])
def test_representation_independence(p, a, b, monkeypatch):
    system1 = DiagonalSystem(p, a, b)
    second = _second_primitive(system1.field)
    monkeypatch.setattr(FiniteField, "_find_primitive", lambda self: second)
    system2 = DiagonalSystem(p, a, b)
    assert system1.field.omega_idx != system2.field.omega_idx
    for r in range(4):
        for alpha in range(system1.q):
            assert system1.count_nonzero(alpha, r) == system2.count_nonzero(
                alpha, r
            )
            assert system1.count_all(alpha, r) == system2.count_all(alpha, r)


def test_nonzero_count_bounded(roster_systems):
    system = roster_systems[(5, 1, 2)]
    for r in range(4):
        for alpha in (0, 1, 7):
            assert 0 <= system.count_nonzero(alpha, r) <= (system.q - 1) ** r


@pytest.mark.parametrize("p,a,b", [(2, 4, 5), (3, 6, 2)])
def test_formula_past_gf_7_6(p, a, b):
    # alpha is built forward from chosen coordinates, so neither the zero
    # pattern nor the count below reads the inverted system
    system = DiagonalSystem(p, a, b)
    field, smap, Q = system.field, system.view, p**a
    walks = hamming_distance_walks(b, Q, 6)
    rng = random.Random(7)

    def subfield_element(nonzero):
        digits = [0] * a
        while nonzero and not any(digits):
            digits = [rng.randrange(p) for _ in range(a)]
        acc = 0
        for c, t in zip(digits, subfield_basis(smap)[0]):
            acc = field.add_idx(acc, field.mul_idx(c, t))
        return acc

    for zeros in itertools.product((True, False), repeat=b):
        d = zeros.count(False)
        for _ in range(3):
            coords = [subfield_element(not z) for z in zeros]
            alpha = reconstruct(smap, coords)
            assert system.view.pattern_idx(alpha) == zeros
            for r in range(7):
                assert system.count_nonzero(alpha, r) == (
                    system.k**r * walks[r][d]
                ), (coords, r)


def test_system_repr_names_its_parameters():
    assert repr(DiagonalSystem(3, 1, 2)) == (
        "DiagonalSystem(p=3, a=1, b=2, q=9, k=2)")
