import itertools
import math
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest
from conftest import hamming_distance_walks, krawtchouk_double_sum

from diagwalks import (
    DenseGraph,
    NepsBasis,
    complete_graph,
    complete_walks,
    hamming_walks,
    neps_complete_walks,
    neps_construct,
    neps_walks,
)
from diagwalks import errors, neps, verify
from diagwalks.diagonal import DiagonalSystem
from diagwalks.errors import (
    MAX_WORK,
    ArityMismatch,
    BadParameters,
    DiagwalksError,
    LengthTableTooShort,
    NepsWalkTooLarge,
    ProductTooLarge,
)
from diagwalks.graphs import MAX_PRODUCT_BYTES, product_order
from diagwalks.neps import (
    _column_sum_multiplicities,
    _dp_updates,
    agreement_pattern,
    vertex_tuple,
)


def test_basis_validation():
    with pytest.raises(ValueError):
        NepsBasis([])
    with pytest.raises(ValueError):
        NepsBasis([(0, 0)])
    with pytest.raises(ValueError):
        NepsBasis([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        NepsBasis([(1, 0), (1,)])
    with pytest.raises(ValueError):
        NepsBasis([(2, 0)])


def test_basis_refusals_are_typed():
    # a basis that is not a collection of tuples raised TypeError, and a
    # literal character that is no digit a plain ValueError from int()
    with pytest.raises(BadParameters, match="basis must hold tuples"):
        NepsBasis([1])
    with pytest.raises(BadParameters, match="basis entry='x'"):
        NepsBasis.parse("1x")
    # a tuple with no entries has its own refusal, not the all-zero one
    with pytest.raises(BadParameters, match="at least one entry"):
        NepsBasis([()])
    with pytest.raises(BadParameters, match="at least one entry"):
        NepsBasis.parse("")


def test_basis_parse():
    assert NepsBasis.parse("11").tuples == ((1, 1),)
    assert NepsBasis.parse("10;01") == NepsBasis.standard(2)
    assert len(NepsBasis.parse("11;10;01")) == 3


def test_vertex_indexing_roundtrip():
    sizes = (3, 4, 2)
    assert [vertex_tuple(idx, sizes) for idx in range(24)] == list(
        itertools.product(*map(range, sizes)))
    # leftmost factor most significant
    assert vertex_tuple(0, sizes) == (0, 0, 0)
    assert vertex_tuple(23, sizes) == (2, 3, 1)


def test_kronecker_product_construction():
    g = neps_construct([complete_graph(3), complete_graph(4)], NepsBasis([(1, 1)]))
    assert g.n == 12
    assert (g.adj.sum(axis=1) == 6).all()


def kronecker_sum(factors, basis):
    """Reference NEPS adjacency: the int8 sum over the basis of the Kronecker
    products of adjacencies (1) and identities (0), leftmost factor most
    significant."""
    total = math.prod(g.n for g in factors)
    acc = np.zeros((total, total), dtype=np.int8)
    for alpha in basis:
        term = np.ones((1, 1), dtype=np.int8)
        for g, a in zip(factors, alpha):
            term = np.kron(term, g.adj if a else np.identity(g.n, dtype=np.int8))
        acc += term
    return acc


def test_construct_matches_the_kronecker_sum():
    k3, k4 = complete_graph(3), complete_graph(4)
    cases = [([k3, k4], NepsBasis(basis)) for size in (1, 2, 3)
             for basis in itertools.combinations([(0, 1), (1, 0), (1, 1)], size)]
    rng = random.Random(34)
    for _ in range(200):
        factors, basis, _ = verify.random_neps_instance(rng)
        cases.append((factors, basis))
    for factors, basis in cases:
        adj = neps_construct(factors, basis).adj
        want = kronecker_sum(factors, basis)
        assert adj.dtype == np.int8 and adj.shape == want.shape
        assert np.array_equal(adj, want), ([g.n for g in factors], basis)


def test_unary_neps_is_identity():
    k5 = complete_graph(5)
    g = neps_construct([k5], NepsBasis([(1,)]))
    assert (g.adj == k5.adj).all()


def test_rooks_graph():
    g = neps_construct(
        [complete_graph(3), complete_graph(3)], NepsBasis.standard(2)
    )
    assert g.n == 9
    assert (g.adj.sum(axis=1) == 4).all()


def test_construct_errors():
    with pytest.raises(ArityMismatch):
        neps_construct([complete_graph(3)], NepsBasis([(1, 1)]))
    with pytest.raises(ProductTooLarge, match=str(MAX_PRODUCT_BYTES)):
        # 65^2 = 4225 vertices: 4225^2 int8 bytes > MAX_PRODUCT_BYTES
        neps_construct([complete_graph(65)] * 2, NepsBasis([(1, 1)]))


def test_product_order_cap_is_4096_vertices():
    assert product_order([64, 64]) == 4096
    assert product_order([2] * 12) == 4096
    for sizes in ([65, 65], [4097], [2] * 13):
        with pytest.raises(ProductTooLarge):
            product_order(sizes)


def test_construct_peak_memory_per_entry():
    # the int8 sum of broadcast products, handed over to the graph with no
    # copy and checked with no bool temporaries (3 bytes per entry with
    # them); an int64 accumulator took 35 bytes per entry
    factors = [complete_graph(64)] * 2
    tracemalloc.start()
    try:
        graph = neps_construct(factors, NepsBasis([(1, 1)]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n == 4096 and not graph.directed
    assert graph.adj.dtype == np.int8
    assert peak <= 5 * graph.n**2 // 2


def test_construct_directed_factor():
    # one arc on two vertices, times K3: directed when a tuple moves in it
    arc = DenseGraph(np.array([[0, 1], [0, 0]]))
    for basis in (NepsBasis([(1, 1)]), NepsBasis.standard(2)):
        graph = neps_construct([arc, complete_graph(3)], basis)
        assert graph.directed
        assert set(np.unique(graph.adj)) <= {0, 1}
    assert not neps_construct([complete_graph(2), complete_graph(3)],
                              NepsBasis.standard(2)).directed
    # I x K3: the basis never moves in the directed factor
    assert not neps_construct([arc, complete_graph(3)],
                              NepsBasis([(0, 1)])).directed


def test_single_tuple_basis_collapses_to_one_term():
    # basis {(1,1)}: the only column-sum vector is (r, r)
    tables = [[1, 0, 2, 2], [1, 0, 3, 6]]
    for r in range(4):
        assert neps_walks(tables, NepsBasis([(1, 1)]), r) == (
            tables[0][r] * tables[1][r]
        )


def test_zero_length_convention():
    basis = NepsBasis([(1, 1)])
    assert neps_walks([[1], [1]], basis, 0) == 1
    assert neps_walks([[0], [1]], basis, 0) == 0


def test_example_g1_closed_walks():
    sizes = [3, 4]
    basis = NepsBasis([(1, 1)])
    g = neps_construct([complete_graph(m) for m in sizes], basis)
    # closed 2-walks equal the degree: 6
    assert neps_complete_walks(sizes, basis, 2, (True, True)) == 6
    assert g.walk_count(2, 0, 0) == 6


def test_example_g2_closed_walks():
    sizes = [3, 4]
    basis = NepsBasis([(1, 0), (0, 1)])
    g = neps_construct([complete_graph(m) for m in sizes], basis)
    # binomial expansion at r=2: 1*1*3 + 2*0*0 + 1*2*1 = 5
    assert neps_complete_walks(sizes, basis, 2, (True, True)) == 5
    assert g.walk_count(2, 0, 0) == 5


def test_no_closed_walks_of_length_one():
    for sizes, basis in [
        ([3, 4], NepsBasis([(1, 1)])),
        ([3, 4], NepsBasis.standard(2)),
        ([2, 2, 2], NepsBasis([(1, 1, 1), (1, 0, 0)])),
    ]:
        assert neps_complete_walks(sizes, basis, 1, (True,) * len(sizes)) == 0


def naive_neps_walks(tables, basis, r):
    """Reference: the walk formula summed over all |B|^r basis sequences."""
    total = 0
    for seq in itertools.product(basis.tuples, repeat=r):
        term = 1
        for t in range(basis.n):
            term *= tables[t][sum(beta[t] for beta in seq)]
        total += term
    return total


def test_dp_equals_naive():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 3)
        tuples = [
            t
            for t in [
                tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(4)
            ]
            if any(t)
        ]
        if not tuples:
            continue
        basis = NepsBasis(set(tuples))
        r = rng.randint(0, 5)
        tables = [
            [1 if ell == 0 else rng.randint(0, 5) for ell in range(r + 1)]
            for _ in range(n)
        ]
        assert neps_walks(tables, basis, r) == naive_neps_walks(tables, basis, r)


class NoSteps(tuple):
    """A basis whose tuples cannot be iterated, as every DP step does."""

    def __iter__(self):
        raise RuntimeError("a DP step ran")


def test_dp_cap_refuses_before_any_step():
    # K2 x K2 x K2 with all seven tuples: about r^4 updates, 4.9e6 at r = 40
    tuples = NoSteps(t for t in itertools.product((0, 1), repeat=3) if any(t))
    with pytest.raises(NepsWalkTooLarge, match="MAX_WORK"):
        _column_sum_multiplicities(tuples, 200)
    with pytest.raises(RuntimeError, match="a DP step ran"):
        _column_sum_multiplicities(tuples, 3)  # under the cap: steps run


def test_dp_bound_covers_every_update():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        tuples = [t for t in itertools.product((0, 1), repeat=n) if any(t)]
        basis = tuple(sorted(rng.sample(tuples, rng.randint(1, len(tuples)))))
        r = rng.randint(0, 10)
        updates = sum(len(basis) * len(_column_sum_multiplicities(basis, t))
                      for t in range(r))
        assert updates <= _dp_updates(n, len(basis), r)
    # the K3 x K4 tensor product at length 40 and the verify instances
    # (3 factors, r <= 5) stay far under the cap
    assert _dp_updates(2, 1, 40) == 40
    assert _dp_updates(3, 7, 5) < MAX_WORK // 1000
    assert _dp_updates(3, 7, 40) < MAX_WORK < _dp_updates(3, 7, 200)


def test_dp_cap_changes_no_count(monkeypatch):
    basis = NepsBasis([(1, 0), (0, 1), (1, 1)])
    tables = [[1, 0, 2, 2, 6], [1, 0, 3, 6, 21]]
    want = naive_neps_walks(tables, basis, 4)
    monkeypatch.setattr(errors, "MAX_WORK", _dp_updates(2, 3, 4))
    assert neps_walks(tables, basis, 4) == want
    monkeypatch.setattr(errors, "MAX_WORK", _dp_updates(2, 3, 4) - 1)
    with pytest.raises(NepsWalkTooLarge):
        neps_walks(tables, basis, 4)


def random_complete_instance(rng):
    """1 to 4 complete factors on 1 to 7 vertices, a random basis, a random
    agreement pattern, and r <= 12; r <= 6 on four factors, where the DP
    oracle's (r+1)^5 updates would take most of a second."""
    n = rng.randint(1, 4)
    sizes = [rng.randint(1, 7) for _ in range(n)]
    tuples = [t for t in itertools.product((0, 1), repeat=n) if any(t)]
    basis = NepsBasis(rng.sample(tuples, rng.randint(1, len(tuples))))
    pattern = tuple(rng.random() < 0.5 for _ in range(n))
    return sizes, basis, rng.randint(0, 12 if n < 4 else 6), pattern


def test_spectral_form_equals_dp_on_complete_tables():
    rng = random.Random(16)
    for _ in range(500):
        sizes, basis, r, pattern = random_complete_instance(rng)
        tables = [[complete_walks(m, ell, same) for ell in range(r + 1)]
                  for m, same in zip(sizes, pattern)]
        assert neps_complete_walks(sizes, basis, r, pattern) == neps_walks(
            tables, basis, r), (sizes, basis, r, pattern)


def test_spectral_form_equals_matrix_power_with_k1():
    rng = random.Random(17)
    for _ in range(40):
        sizes = [1] + [rng.randint(1, 6) for _ in range(rng.randint(1, 2))]
        tuples = [t for t in itertools.product((0, 1), repeat=len(sizes))
                  if any(t)]
        basis = NepsBasis(rng.sample(tuples, rng.randint(1, len(tuples))))
        g = neps_construct([complete_graph(m) for m in sizes], basis)
        r = rng.randint(0, 8)
        power = g.walk_matrix(r)
        for j in range(g.n):
            pattern = agreement_pattern(sizes, 0, j)
            assert neps_complete_walks(sizes, basis, r, pattern) == (
                power[0, j]), (sizes, basis, r, j)


def test_spectral_form_builds_no_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a walk table was built")

    monkeypatch.setattr(neps, "neps_walks", refuse)
    monkeypatch.setattr(neps, "_column_sum_multiplicities", refuse)
    basis = NepsBasis(t for t in itertools.product((0, 1), repeat=3) if any(t))
    # K2 x K2 x K2 with all seven tuples is K_8: 7^r + 7 (-1)^r over 8
    assert neps_complete_walks([2, 2, 2], basis, 200, (True,) * 3) == (
        7**200 + 7) // 8
    assert neps_complete_walks([3], NepsBasis([(1,)]), 30_000, (True,)) == (
        2**30_000 + 2) // 3


class NoTerms(NepsBasis):
    """A basis whose tuples cannot be iterated, as every spectral term does."""

    def __iter__(self):
        raise RuntimeError("a term was taken")


def test_spectral_cap_refuses_before_any_term(monkeypatch):
    # 4 sign choices of 3 basis tuples, 2 factors each
    basis = NoTerms([(1, 0), (0, 1), (1, 1)])
    monkeypatch.setattr(errors, "MAX_WORK", 2 * 4 * 3 - 1)
    with pytest.raises(NepsWalkTooLarge, match="12 terms.*MAX_WORK"):
        neps_complete_walks([3, 4], basis, 5, (True, False))
    monkeypatch.setattr(errors, "MAX_WORK", 2 * 4 * 3)
    with pytest.raises(RuntimeError, match="a term was taken"):
        neps_complete_walks([3, 4], basis, 5, (True, False))


def test_spectral_form_checks_its_arguments_before_any_term():
    basis = NoTerms([(1, 0), (0, 1)])
    for pattern in [(True, True, False), (True,)]:
        with pytest.raises(ArityMismatch, match=f"pattern length {len(pattern)}"):
            neps_complete_walks([3, 4], basis, 2, pattern)
    with pytest.raises(ArityMismatch, match="1 sizes"):
        neps_complete_walks([3], basis, 2, (True, True))
    for sizes in ([0, 3], [3, -1]):
        with pytest.raises(ValueError, match="sizes must be >= 1"):
            neps_complete_walks(sizes, basis, 2, (True, True))


def test_array_tables_equal_per_entry_calls():
    rng = random.Random(5)
    basis = NepsBasis([(1, 1, 0), (0, 1, 1), (1, 0, 0)])
    r, shape = 4, (3, 4)
    tables = [
        [np.array([[rng.choice((0, 0, 1, 2, 7)) for _ in range(shape[1])]
                   for _ in range(shape[0])], dtype=object)
         for _ in range(r + 1)]
        for _ in range(basis.n)
    ]
    assert any((tab == 0).any() for factor in tables for tab in factor)
    counts = neps_walks(tables, basis, r)
    assert counts.shape == shape
    for i in range(shape[0]):
        for j in range(shape[1]):
            entry = [[tab[i, j] for tab in factor] for factor in tables]
            assert counts[i, j] == neps_walks(entry, basis, r)


def test_formula_walk_matrix_exact_past_int64():
    # 6^40 closed walks: far past 2^63, so int64 arithmetic would wrap
    factors = [complete_graph(3), complete_graph(4)]
    basis = NepsBasis([(1, 1)])
    formula = verify.formula_walk_matrix(factors, basis, 40)
    power = neps_construct(factors, basis).walk_matrix(40)
    assert formula.dtype == object and formula.shape == (12, 12)
    assert max(formula.flat) > 2**63
    assert (formula == power).all()


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_formula_walk_matrix_random_instances_run_in_int64(seed):
    # the instances check_neps_oracle draws (r <= 5, at most 5 vertices a
    # factor) all stay under the int64 bound
    rng = random.Random(seed)
    for _ in range(50):
        factors, basis, r = verify.random_neps_instance(rng)
        formula = verify.formula_walk_matrix(factors, basis, r)
        power = neps_construct(factors, basis).walk_matrix(r)
        assert formula.dtype == np.int64
        assert (formula == power).all()


@pytest.mark.parametrize("r, dtype", [(13, np.int64), (14, object)])
def test_formula_walk_matrix_dtype_follows_the_bound(r, dtype):
    # K5 x K5 with basis 11;10;01: D = 4*4 + 4 + 4 = 24, and
    # 24^13 < 2^63 <= 24^14
    factors = [complete_graph(5), complete_graph(5)]
    basis = NepsBasis.parse("11;10;01")
    assert (24**r < verify.INT64_LIMIT) == (dtype is np.int64)
    formula = verify.formula_walk_matrix(factors, basis, r)
    power = neps_construct(factors, basis).walk_matrix(r)
    assert formula.dtype == dtype and formula.shape == (25, 25)
    assert (formula == power).all()


def test_formula_walk_matrix_bound_counts_an_edgeless_factor_as_one():
    # K2 x (2 isolated vertices) with basis 10;01;11: with the row sum 0 in
    # place of 1, D would be 1 and pick int64, but the word counts c(s) of
    # B^50 reach 2^73, and D = 3 gives 3^50 > 2^63
    empty = DenseGraph(np.zeros((2, 2), dtype=np.int8))
    factors, basis = [complete_graph(2), empty], NepsBasis.parse("10;01;11")
    formula = verify.formula_walk_matrix(factors, basis, 50)
    power = neps_construct(factors, basis).walk_matrix(50)
    assert formula.dtype == object
    assert (formula == power).all()


def test_formula_matches_matrix_power_sampled():
    rng = random.Random(9)
    for sizes, basis in [
        ([3, 3], NepsBasis.standard(2)),
        ([3, 4], NepsBasis([(1, 1), (1, 0)])),
        ([2, 3, 4], NepsBasis([(1, 1, 1), (0, 1, 0), (1, 0, 1)])),
    ]:
        g = neps_construct([complete_graph(m) for m in sizes], basis)
        for r in range(5):
            for _ in range(10):
                i, j = rng.randrange(g.n), rng.randrange(g.n)
                pattern = agreement_pattern(sizes, i, j)
                assert neps_complete_walks(sizes, basis, r, pattern) == (
                    g.walk_count(r, i, j)
                )


def test_h23_common_neighbours():
    # rook's graph SRG(9,4,1,2): adjacent vertices share 1 common neighbour
    g = neps_construct(
        [complete_graph(3), complete_graph(3)], NepsBasis.standard(2)
    )
    assert g.walk_count(2, 0, 1) == 1
    assert hamming_walks(2, 3, 2, (True, False)) == 1


def test_hamming_walks_trivia():
    assert hamming_walks(3, 4, 1, (True, True, False)) == 1
    assert hamming_walks(3, 4, 0, (True, True, True)) == 1
    assert hamming_walks(3, 4, 0, (True, False, True)) == 0


def test_hamming_walks_pattern_forms():
    # a generator, 0/1 ints and bools name the same distance-1 pattern
    want = hamming_walks(3, 4, 5, (True, True, False))
    assert hamming_walks(3, 4, 5, (z == 0 for z in (0, 0, 2))) == want
    assert hamming_walks(3, 4, 5, [1, 1, 0]) == want
    # a tuple is read as it is, by the truth of its entries
    for same in ((1, 1, 0), (np.True_, np.True_, np.False_), (2, 2, 0),
                 (True, 1, 0.0), (1, "x", None)):
        assert hamming_walks(3, 4, 5, same) == want, same
    for wrong in ((True, False), [1, 1, 0, 0], (z for z in (1, 0))):
        with pytest.raises(ArityMismatch, match="pattern length"):
            hamming_walks(3, 4, 5, wrong)


def test_a_filled_memo_refuses_what_a_cold_one_does():
    # the memo checks b, q and r only when it misses a key, so a key it
    # holds must not let a bad argument through
    bad = [(2, 3, 2.0, (True, False)), (2, 3, 2.5, (True, False)),
           (2, 3, -1, (True, False)), (2, 3, 10**5000, (True, False)),
           (2.0, 3, 2, (True, False)), (2, 3, 2, (True,))]

    def refusals():
        out = []
        for args in bad:
            with pytest.raises(DiagwalksError) as info:
                hamming_walks(*args)
            out.append((type(info.value), str(info.value)))
        return out

    neps.cache_clear()
    cold = refusals()
    want = hamming_walks(2, 3, 2, (True, False))
    assert refusals() == cold
    for r, zeros in ((2, [True, False]), (2, np.array([True, False])),
                     (2, (1, 0)), (np.int64(2), (True, False))):
        got = hamming_walks(2, 3, r, zeros)
        assert type(got) is int and got == want, (r, zeros)
    # a refusal is never stored: it raises again on the next call
    size = neps.cache_info()["walks"]["currsize"]
    for args in ((0, 3, 0, ()), (2, 1, 0, (True, True))):
        for _ in range(2):
            with pytest.raises(BadParameters, match="bad Hamming parameters"):
                hamming_walks(*args)
    assert neps.cache_info()["walks"]["currsize"] == size


def test_hamming_refusals_name_huge_arguments_by_bit_length():
    # str() of an int of over 4,300 digits raises a plain ValueError
    huge = -10**5000
    for error, args in ((BadParameters, (2, huge, 2, (True, False))),
                        (ArityMismatch, (huge, 3, 2, (True, False)))):
        with pytest.raises(error, match=f"<{huge.bit_length()}-bit integer>"):
            hamming_walks(*args)


def test_hamming_pattern_permutation_invariance():
    for r in range(6):
        patterns = [
            (True, False, False),
            (False, True, False),
            (False, False, True),
        ]
        values = {hamming_walks(3, 4, r, pat) for pat in patterns}
        assert len(values) == 1


def test_hamming_matches_matrix_power():
    sizes = [4, 4, 4]
    g = neps_construct([complete_graph(4) for _ in sizes], NepsBasis.standard(3))
    for r in range(5):
        for i, j in [(0, 0), (0, 1), (0, 5), (0, 21)]:
            pattern = agreement_pattern(sizes, i, j)
            assert hamming_walks(3, 4, r, pattern) == g.walk_count(r, i, j)


def test_hamming_walks_match_distance_recurrence():
    # far beyond what a composition sum over C(r+b-1, b-1) terms can reach;
    # each count is asked twice, cold from the memo and then warm
    neps.cache_clear()
    checked = 0
    for b in range(1, 10):
        for q in range(2, 10):
            rows = hamming_distance_walks(b, q, 40)
            for d in range(b + 1):
                zeros = (True,) * (b - d) + (False,) * d
                for r, row in enumerate(rows):
                    for _ in range(2):
                        assert hamming_walks(b, q, r, zeros) == row[d], (
                            b, q, r, d)
                    checked += 1
    assert checked == 17_712
    # the 17,712 distinct keys, a few hundred bytes each, all fit the memo
    memo = neps.cache_info()["walks"]
    assert memo["misses"] == memo["hits"] == memo["currsize"] == checked
    assert 0 < memo["bytes"] <= neps.MAX_WALK_MEMO_BYTES


def test_hamming_walks_match_krawtchouk_double_sum():
    # the weights by their three-term recurrence against the double sum,
    # every key asked once, from a cold memo
    neps.cache_clear()
    for b in range(1, 13):
        for q in range(2, 17):
            for d in range(b + 1):
                zeros = (True,) * (b - d) + (False,) * d
                for r in range(13):
                    assert hamming_walks(b, q, r, zeros) == (
                        krawtchouk_double_sum(b, q, r, d)), (b, q, d, r)
    assert neps.cache_info()["walks"]["hits"] == 0


def test_hamming_walks_at_a_64_bit_alphabet():
    # 401 weights of up to 25,600 bits, where the double sum takes seconds;
    # a call leaves its count in the memo and nothing else
    b, q = 400, 2**64
    neps.cache_clear()
    started = time.perf_counter()
    assert hamming_walks(b, q, 0, (True,) * 200 + (False,) * 200) == 0
    assert time.perf_counter() - started < 0.5
    assert neps.cache_info()["walks"]["currsize"] == 1
    for d in (0, 1, 2, 200, 400):
        zeros = (True,) * (b - d) + (False,) * d
        assert hamming_walks(b, q, 0, zeros) == (d == 0)
        assert hamming_walks(b, q, 1, zeros) == (d == 1)
    assert hamming_walks(b, q, 2, (True,) * b) == b * (q - 1)


def test_krawtchouk_cap_refuses_before_any_step(monkeypatch):
    # (b+1) ceil(b bitlen(q) / 64) word operations: 312,503,125 here,
    # refused before the first of the recurrence's 100,001 steps
    started = time.perf_counter()
    with pytest.raises(NepsWalkTooLarge, match="312503125 word operations"):
        hamming_walks(10**5, 2, 0, (True,) * 10**5)
    assert time.perf_counter() - started < 0.1
    # H(6,7) takes 7 single-word steps: admitted at a cap of 7, not 6
    zeros = (True,) * 4 + (False,) * 2
    want = hamming_walks(6, 7, 5, zeros)
    neps.cache_clear()
    monkeypatch.setattr(errors, "MAX_WORK", 6)
    with pytest.raises(NepsWalkTooLarge, match="take 7 word operations"):
        hamming_walks(6, 7, 5, zeros)
    monkeypatch.setattr(errors, "MAX_WORK", 7)
    assert hamming_walks(6, 7, 5, zeros) == want


def test_eigenvalue_powers_refused_before_any_power(monkeypatch):
    # H(17888, 2) passes the weight cap with 9,999,951 word operations,
    # but its 17,889 powers to r = 69,905 take 293,093,376 words, minutes
    # of squaring: refused before the first, and nothing is memoized
    neps.cache_clear()
    started = time.perf_counter()
    with pytest.raises(NepsWalkTooLarge, match="293093376 words"):
        hamming_walks(17888, 2, 69905, (True,) * 17888)
    assert time.perf_counter() - started < 0.1
    assert neps.cache_info()["walks"]["currsize"] == 0
    # K_3, K_5, ..., K_1025 under the standard basis: 1,024 terms, within
    # the term cap, group into 939 distinct Lambda; their powers to
    # r = 95,337 took 36 s
    sizes = [2**i + 1 for i in range(1, 11)]
    started = time.perf_counter()
    with pytest.raises(NepsWalkTooLarge, match="raises 939 eigenvalues"):
        neps_complete_walks(sizes, NepsBasis.standard(10), 95_337,
                            (True,) * 10)
    assert time.perf_counter() - started < 0.5
    # at the cap: H(2,3) at r = 64 raises 3 eigenvalues to powers of 2
    # words (4^64 and below), K_5 two of them
    calls = [(lambda: hamming_walks(2, 3, 64, (True, True)), 6),
             (lambda: complete_walks(5, 64, True), 4)]
    wants = [call() for call, _ in calls]
    neps.cache_clear()
    for (call, words), want in zip(calls, wants):
        monkeypatch.setattr(errors, "MAX_WORK", words - 1)
        with pytest.raises(NepsWalkTooLarge, match=f" {words} words"):
            call()
        monkeypatch.setattr(errors, "MAX_WORK", words)
        assert call() == want
    # an eigenvalue of absolute value at most 1 keeps its powers one word
    assert complete_walks(2, 10**9, True) == 1
    assert complete_walks(1, 10**9, True) == 0


def test_complete_spectral_sum_counts_every_factor_of_its_terms(monkeypatch):
    # 18 factors K_2 under the standard basis: 2^18 * 18 terms are within
    # the cap, but each is an 18-fold product, 84,934,656 operations; the
    # weight loop took 7.9 s to return 0
    started = time.perf_counter()
    with pytest.raises(NepsWalkTooLarge, match="84934656 operations"):
        neps_complete_walks([2] * 18, NepsBasis.standard(18), 1, (True,) * 18)
    assert time.perf_counter() - started < 1
    # K_3 x K_4 under 11: 4 sign choices of one 2-fold product
    monkeypatch.setattr(errors, "MAX_WORK", 7)
    with pytest.raises(NepsWalkTooLarge, match=" 8 operations"):
        neps_complete_walks([3, 4], NepsBasis([(1, 1)]), 2, (True, True))
    monkeypatch.setattr(errors, "MAX_WORK", 8)
    assert neps_complete_walks([3, 4], NepsBasis([(1, 1)]), 2,
                               (True, True)) == 6


def test_cache_info_reports_hits_misses_and_size():
    neps.cache_clear()
    before = neps.cache_info()
    hamming_walks(6, 7, 5, (True,) * 4 + (False,) * 2)
    hamming_walks(6, 7, 5, (True,) * 4 + (False,) * 2)
    after = neps.cache_info()
    fields = {"hits", "misses", "maxsize", "currsize", "bytes"}
    assert set(before) == set(after) == {"walks"}
    assert all(set(info) == fields for info in (*before.values(),
                                                *after.values()))
    assert (before["walks"]["hits"], after["walks"]["hits"]) == (0, 1)
    assert after["walks"]["misses"] == after["walks"]["currsize"] == 1
    # the count, its key tuple and the key's four ints
    key = (6, 7, 2, 5)
    held = sys.getsizeof(hamming_walks(6, 7, 5, (True,) * 4 + (False,) * 2))
    held += sys.getsizeof(key) + sum(map(sys.getsizeof, key))
    assert (before["walks"]["bytes"], after["walks"]["bytes"]) == (0, held)


def test_a_repeated_count_all_adds_no_miss():
    # a second M_400 on one alpha of (3,1,2) reads its 400 walk counts from
    # the memo; a memo of 238 entries, used in order, missed all 400 again
    system = DiagonalSystem(3, 1, 2)
    neps.cache_clear()
    first = system.count_all(1, 400)
    misses = neps.cache_info()["walks"]["misses"]
    assert misses == 400
    assert system.count_all(1, 400) == first
    assert neps.cache_info()["walks"]["misses"] == misses


def test_walk_memo_is_emptied_before_it_passes_its_bytes(monkeypatch):
    # under a cap of 4 KiB the memo is emptied several times over; it never
    # holds more than the cap, and every count it returns is right
    monkeypatch.setattr(neps, "MAX_WALK_MEMO_BYTES", 1 << 12)
    neps.cache_clear()
    rows = hamming_distance_walks(3, 5, 60)
    flushes, size = 0, 0
    for r, row in enumerate(rows):
        for d in range(4):
            zeros = (True,) * (3 - d) + (False,) * d
            assert hamming_walks(3, 5, r, zeros) == row[d], (r, d)
            memo = neps.cache_info()["walks"]
            assert 0 < memo["bytes"] <= neps.MAX_WALK_MEMO_BYTES
            flushes += memo["currsize"] < size + 1
            size = memo["currsize"]
    assert flushes >= 3
    neps.cache_clear()
    assert neps.cache_info()["walks"]["bytes"] == 0


def test_length_table_too_short():
    with pytest.raises(LengthTableTooShort):
        neps_walks([[1, 0]], NepsBasis([(1,)]), 2)


def test_table_count_must_match_arity():
    for tables in ([[1, 0]], [[1, 0]] * 3):
        with pytest.raises(ArityMismatch, match=f"{len(tables)} walk tables"):
            neps_walks(tables, NepsBasis([(1, 1)]), 1)


def test_negative_length_rejected():
    with pytest.raises(BadParameters, match="r=-1 must be >= 0"):
        neps_walks([[1]], NepsBasis([(1,)]), -1)
    with pytest.raises(BadParameters, match="r=-1 must be >= 0"):
        neps_complete_walks([3, 4], NepsBasis([(1, 1)]), -1, (True, True))


def test_neps_oracle_negative_control(monkeypatch):
    real = verify.neps_walks
    monkeypatch.setattr(verify, "neps_walks",
                        lambda *args, **kwargs: real(*args, **kwargs) + 1)
    [result] = verify.check_neps_oracle(instances=3, seed=0)
    assert not result.ok
    assert "pair=(0,0)" in result.detail


def test_neps_oracle_names_the_corrupted_pair(monkeypatch):
    real = verify.neps_walks

    def corrupt_one_entry(*args, **kwargs):
        counts = real(*args, **kwargs)
        counts.flat[-2] += 1
        return counts

    monkeypatch.setattr(verify, "neps_walks", corrupt_one_entry)
    factors, _, _ = verify.random_neps_instance(random.Random(0))
    n = math.prod(g.n for g in factors)
    [result] = verify.check_neps_oracle(instances=3, seed=0)
    assert not result.ok
    assert f"pair=({n - 1},{n - 2})" in result.detail


def test_equal_bases_hash_as_their_sorted_tuples():
    basis = NepsBasis([(0, 1), (1, 0)])
    assert basis == NepsBasis.parse("10;01") == NepsBasis.standard(2)
    assert hash(basis) == hash(NepsBasis.parse("10;01")) == hash(
        ((0, 1), (1, 0)))
    assert len({basis, NepsBasis.parse("10;01"), NepsBasis([(1, 1)])}) == 2
