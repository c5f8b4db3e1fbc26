import itertools
import random
import re
import time
import tracemalloc

import pytest

from diagwalks import (
    DiagonalSystem,
    HammingView,
    build_field,
    gp_graph,
    hamming_parameters,
    kth_power_residues,
    verify_isomorphism,
    walk_solution_count,
)
from diagwalks import cli as cli_mod
from diagwalks import diagonal as diagonal_mod
from diagwalks import field as field_mod
from diagwalks import gp as gp_mod
from diagwalks.divisibility import multiplicative_order
from diagwalks.errors import (BadDecomposition, BadParameters, DependentBasis,
                              DiagwalksError, FieldTooLarge, KDoesNotDivide,
                              NotPrime)
from diagwalks.field import SubfieldMap, is_prime

from conftest import coordinates, divisors, fields_under, order_mod


def test_primitive_divisor_examples():
    # u is a primitive divisor of p^m - 1 when the order of p mod u is m
    assert multiplicative_order(3, 4, 2) == 2
    assert multiplicative_order(3, 1, 1) == 1  # u = 1 divides p^1 - 1
    assert multiplicative_order(2, 3, 4) == 2  # 3 | 2^2-1 with h=2 < 4


def test_gp_complete_for_k1(f9):
    g = gp_graph(f9, 1)
    assert not g.directed
    assert (g.adj.sum(axis=1) == 8).all()


def test_paley_9(f9):
    g = gp_graph(f9, 2)
    assert not g.directed
    assert (g.adj.sum(axis=1) == 4).all()
    # Paley graph of order 9 is SRG(9,4,1,2)
    for x in range(9):
        for y in range(9):
            walks2 = g.walk_count(2, x, y)
            if x == y:
                assert walks2 == 4
            elif g.adj[x, y]:
                assert walks2 == 1
            else:
                assert walks2 == 2


def test_single_connection_element(f9):
    g = gp_graph(f9, 8)  # R = {1}
    assert (g.adj.sum(axis=1) == 1).all()


def test_directed_flag():
    # DenseGraph reads `directed` from the matrix; R_k is closed under
    # negation exactly when p = 2 or u = (q-1)/k is even. The sweep takes
    # every k on the benchmark roster's fields, GF(25) k=8 and GF(81) k=10
    # (u = 3 and 8) among them.
    for p, m in [(3, 2), (5, 2), (7, 2), (2, 6), (3, 4), (7, 3)]:
        field = build_field(p, m)
        for k in range(1, field.q):
            if (field.q - 1) % k == 0:
                u = (field.q - 1) // k
                directed = gp_graph(field, k).directed
                assert directed == (not (p == 2 or u % 2 == 0)), (p, m, k)


def test_gp_graph_peak_memory_per_entry():
    # the whole build: the int16 add table (2 bytes per entry) is freed
    # once its R_k columns are read, then the graph keeps the int8 matrix
    # gp_graph hands over and checks its range with no temporaries (3.4
    # bytes per entry with a copy and bool temporaries, 13 before that,
    # with the table read ahead and kept on the field)
    field = build_field(2, 12)
    tracemalloc.start()
    try:
        graph = gp_graph(field, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n == 4096 and not graph.directed
    assert peak <= 3 * graph.n**2


def test_gp_graph_keeps_no_add_table():
    # once gp_graph returns only its int8 adjacency is held: the field
    # used to keep its 2-byte-per-entry add table for its whole life
    gp_graph(build_field(3, 2), 2)  # numpy imported before tracing
    field = build_field(2, 12)
    tracemalloc.start()
    try:
        graph = gp_graph(field, 5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= graph.n**2 + (1 << 20), f"{held} bytes held"
    arrays = [name for name, value in vars(field).items()
              if hasattr(value, "shape")]
    assert not arrays, f"the field holds arrays {arrays}"


def test_k_must_divide(f9):
    with pytest.raises(KDoesNotDivide):
        gp_graph(f9, 5)


@pytest.mark.parametrize("k", [0, -2])
@pytest.mark.parametrize("call", [
    lambda field, k: kth_power_residues(field, k),
    lambda field, k: gp_graph(field, k),
    lambda field, k: hamming_parameters(field.p, field.m, k),
    lambda field, k: walk_solution_count(field, k, 0, 1, 1),
], ids=["residues", "gp_graph", "hamming_parameters", "walk_bridge"])
def test_nonpositive_k_is_refused_before_any_table(no_add_table, call, k):
    # k = 0 used to divide by zero and k = -2 to fail in pow_idx
    field = build_field(3, 2)
    with pytest.raises(KDoesNotDivide, match=f"k={k} is not a positive"):
        call(field, k)


def test_regularity_roster(f25, f64):
    for field, k in [(f25, 3), (f64, 7)]:
        g = gp_graph(field, k)
        u = (field.q - 1) // k
        assert (g.adj.sum(axis=1) == u).all()


def test_cayley_translation_invariance(f9):
    g = gp_graph(f9, 2)
    for r in range(4):
        base = [g.walk_count(r, 0, y) for y in range(9)]
        for x in range(9):
            for y in range(9):
                diff = f9.sub_idx(y, x)
                assert g.walk_count(r, x, y) == base[diff]


def test_hamming_parameters_examples():
    assert hamming_parameters(3, 2, 2) == (1, 2)
    assert hamming_parameters(2, 6, 7) == (2, 3)
    assert hamming_parameters(2, 2, 1) is None
    # u = b(p^a - 1) holds, but u already divides p^h - 1 for some h < m,
    # so Gamma(k, p^m) is not connected: (3, 4, 10) is 9 copies of K_9
    for p, a, b in [(3, 1, 4), (3, 1, 8), (3, 3, 4), (5, 1, 6), (7, 1, 4),
                    (11, 1, 4)]:
        m = a * b
        k = (p**m - 1) // (b * (p**a - 1))
        assert order_mod(p, b * (p**a - 1)) < m
        assert hamming_parameters(p, m, k) is None, (p, a, b)


def test_hamming_parameters_admits_the_field_first(no_number_theory):
    # unpatched, the order of 3 mod (3^1000-1)/2 was still being computed
    # after 5 s
    with pytest.raises(FieldTooLarge, match="p=3, m=1000 exceeds"):
        hamming_parameters(3, 1000, 2)


def test_hamming_parameters_past_the_field_cap_factors_only_m(monkeypatch):
    # the order of 2 mod u = (2^62-1)/3 from the primes of m = 62: three
    # modular powers, where trial division of phi(u) ran past 20 s
    monkeypatch.setattr(field_mod, "MAX_FIELD_ORDER", 1 << 64)
    started = time.perf_counter()
    assert hamming_parameters(2, 62, 3) is None
    assert time.perf_counter() - started < 1


def test_hamming_parameters_refuses_a_composite_p():
    # p = 4 used to reach the order test, which answered None
    with pytest.raises(NotPrime, match="p=4 is not prime"):
        hamming_parameters(4, 2, 3)


def test_hamming_candidates_are_distinct():
    # u = (m/a)(p^a - 1) over the proper divisors a of m: (p^a - 1)/a
    # strictly increases in a, so no two divisors give the same u
    for p in filter(is_prime, range(60)):
        for m in range(2, 25):
            u = [m // a * (p**a - 1) for a in range(1, m) if m % a == 0]
            assert len(set(u)) == len(u), (p, m)


def test_hamming_parameters_is_the_only_pair():
    # every divisor k of q - 1 on the 551 fields under the cap: the one
    # pair returned is the whole list of pairs that satisfy the condition,
    # with the order of p mod u by iteration
    hamming = 0
    for p, m in fields_under():
        n = p**m - 1
        for k in divisors(n):
            u = n // k
            pairs = [(a, m // a) for a in range(1, m) if m % a == 0
                     and u == m // a * (p**a - 1) and order_mod(p, u) == m]
            assert len(pairs) <= 1, (p, m, k)
            assert hamming_parameters(p, m, k) == (
                pairs[0] if pairs else None), (p, m, k)
            hamming += bool(pairs)
    assert hamming == 215


def test_hamming_parameters_imply_undirected():
    for p, m, k in [(3, 2, 2), (5, 2, 3), (7, 2, 4), (2, 6, 7), (3, 4, 5)]:
        assert hamming_parameters(p, m, k) is not None
        u = (p**m - 1) // k
        assert p == 2 or u % 2 == 0


def test_hamming_view_coordinates(f9):
    view = HammingView(f9, 1, 2)
    assert coordinates(view, 1) == (1, 0)
    assert coordinates(view, f9.pow_idx(f9.omega_idx, 2)) == (0, 1)
    # linearity: [x+y] = [x] + [y] componentwise
    for x in range(9):
        for y in range(9):
            s = f9.add_idx(x, y)
            cx, cy, cs = (coordinates(view, v) for v in (x, y, s))
            assert cs == tuple(
                f9.add_idx(a, b) for a, b in zip(cx, cy)
            )


def test_basis_coordinates(f64):
    view = HammingView(f64, 2, 3)
    w_k = f64.pow_idx(f64.omega_idx, 7)
    w_2k = f64.pow_idx(f64.omega_idx, 14)
    assert coordinates(view, 1) == (1, 0, 0)
    assert coordinates(view, w_k) == (0, 1, 0)
    assert coordinates(view, w_2k) == (0, 0, 1)


def test_pattern_idx_matches_coordinates(f9, f64):
    # the zero pattern marks exactly the vanishing subfield coordinates
    for view in (HammingView(f9, 1, 2), HammingView(f64, 2, 3)):
        for x in range(view.field.q):
            pattern = view.pattern_idx(x)
            assert pattern == tuple(c == 0 for c in coordinates(view, x))
    assert HammingView(f9, 1, 2).pattern_idx(1) == (False, True)
    assert HammingView(f9, 1, 2).pattern_idx(0) == (True, True)


def _flag_view(p, a, b):
    """`HammingView.pattern_idx` on the packed layout of any (p, a, b), fed
    solve words directly: the SubfieldMap with k = 1, whose basis
    {omega^i} is always independent, under an identity solve. So it
    covers p = 2, a = 1 too, which has no Hamming view (no b > 1 divides
    2^b - 1)."""
    view = object.__new__(HammingView)
    SubfieldMap.__init__(view, build_field(p, a * b), a, b, 1)
    view._flag_table()
    view.solve_word = lambda word: word
    return view


@pytest.mark.parametrize("p, a", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2),
                                  (7, 1), (97, 1)])
def test_flag_word_reads_every_block_value(p, a):
    # every reduced block value at every position, between random reduced
    # neighbours, and a block whose only nonzero slot is its highest,
    # holding p-1, between all-zero and all-(p-1) neighbours
    b, rng = 3, random.Random(39)
    view = _flag_view(p, a, b)
    width = view._width

    def pack(blocks):
        return sum(c << (slot * width) for slot, c in
                   enumerate(itertools.chain.from_iterable(blocks)))

    def check(blocks):
        want = tuple(not any(block) for block in blocks)
        assert view.pattern_idx(pack(blocks)) == want, blocks

    for value in itertools.product(range(p), repeat=a):
        for i in range(b):
            blocks = [[rng.randrange(p) for _ in range(a)] for _ in range(b)]
            blocks[i] = value
            check(blocks)
    top_only = [0] * (a - 1) + [p - 1]
    for fill in ([0] * a, [p - 1] * a):
        for i in range(b):
            check([top_only if j == i else fill for j in range(b)])
    assert len(view._patterns) == 2**b


@pytest.mark.parametrize("p, a, b", [(3, 1, 2), (2, 2, 3), (7, 1, 6),
                                     (2, 2, 9)])
def test_hamming_view_holds_every_zero_pattern_from_construction(p, a, b):
    # all 2^b patterns, one per flag word, before the first read; a sweep
    # of every element of GF(9) and GF(64) neither adds nor replaces one
    view = HammingView(build_field(p, a * b), a, b)
    table = dict(view._patterns)
    assert sorted(table.values()) == sorted(
        itertools.product((False, True), repeat=b))
    if view.field.q <= 64:
        for x in range(view.field.q):
            assert view.pattern_idx(x) is table[
                (view.solve_word(x) + view._block_low) & view._block_tops]
    assert view._patterns.keys() == table.keys()
    assert all(view._patterns[flags] is table[flags] for flags in table)


def test_pattern_idx_shares_one_tuple_per_zero_set():
    # 1 and 2 are (1, 0, ..., 0) and (2, 0, ..., 0): one zero set, one tuple
    view = DiagonalSystem(7, 1, 6).view
    assert view.pattern_idx(1) is view.pattern_idx(2)
    rng = random.Random(39)
    patterns = [view.pattern_idx(rng.randrange(view.field.q))
                for _ in range(2000)]
    assert len({id(t) for t in patterns}) == len(set(patterns)) <= 2**6


@pytest.mark.parametrize("p, a, b", [(7, 1, 6), (2, 4, 5), (3, 1, 2)])
def test_solve_refuses_a_non_element_index(p, a, b):
    view = DiagonalSystem(p, a, b).view
    q = view.field.q
    for bad in (-1, q, 1.5):
        for solve in (view.solve_word, view.pattern_idx):
            with pytest.raises(BadParameters):
                solve(bad)
    assert view.pattern_idx(0) == (True,) * b
    assert view.pattern_idx(q - 1) != view.pattern_idx(0)


@pytest.mark.parametrize(
    "p,m,k,a,b",
    [(3, 2, 2, 1, 2), (5, 2, 3, 1, 2), (2, 6, 7, 2, 3), (3, 4, 5, 2, 2)],
)
def test_verify_isomorphism_roster(p, m, k, a, b):
    field = build_field(p, m)
    view = HammingView(field, a, b)
    assert view.k == k
    assert verify_isomorphism(view)


@pytest.mark.parametrize("p,m,k", [(3, 4, 10), (2, 2, 1)])
def test_hamming_view_refuses_a_non_hamming_graph(p, m, k, monkeypatch):
    # GP(p^m, k) is no Hamming graph; (a, b) = (1, m) is the pair it would
    # take. (3, 4, 10): u = 8 = 4(3-1) but divides 3^2 - 1, so {w^(10i)}
    # spans GF(9) and the subfield map finds the basis dependent.
    # (2, 2, 1): u = 3 is no b(2^a - 1) with b > 1, so (1, 2) gives no
    # integer k and is refused before the subfield map is built
    field = build_field(p, m)
    if (p**m - 1) % (m * (p - 1)) == 0:
        assert (p**m - 1) // (m * (p - 1)) == k
        with pytest.raises(DependentBasis, match=f"p={p}, m={m}, k={k}"):
            HammingView(field, 1, m)
    else:
        def refuse(*args):
            raise AssertionError("the subfield map was built")

        monkeypatch.setattr(SubfieldMap, "__init__", refuse)
        with pytest.raises(BadDecomposition,
                           match=re.escape(f"p={p}, m={m}, k=(p^m-1)/(b(p^a-1))")):
            HammingView(field, 1, m)


@pytest.mark.parametrize("a, b", [(6, 1), (2, 2), (10**9, 2)])
def test_hamming_view_refuses_a_pair_that_is_no_decomposition(a, b):
    # m = ab and b > 1 are tested before p^a is formed
    with pytest.raises(BadDecomposition, match=f"m=6, .* a={a}, b={b}:"):
        HammingView(build_field(2, 6), a, b)


def test_hamming_view_agrees_with_hamming_parameters():
    # every (p, a, b) with an integer k and q under the field cap: the
    # view's basis test accepts exactly the pairs of the order test
    seen = accepted = 0
    for p, m in fields_under():
        field = None
        for a in (a for a in range(1, m) if m % a == 0):
            b = m // a
            if (p**m - 1) % (b * (p**a - 1)):
                continue
            k = (p**m - 1) // (b * (p**a - 1))
            field = field or build_field(p, m)
            try:
                view = HammingView(field, a, b)
            except DiagwalksError:
                view = None
            want = hamming_parameters(p, m, k) == (a, b)
            assert (view is not None) == want, (p, a, b)
            seen, accepted = seen + 1, accepted + want
    assert (seen, accepted) == (224, 215)


def test_one_hamming_decision_per_caller(monkeypatch, capsys):
    # a system takes one order test and no hamming_parameters call, a view
    # neither, and `walks --gp` one hamming_parameters call
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(diagonal_mod, "multiplicative_order"),
                         (gp_mod, "multiplicative_order"),
                         (gp_mod, "hamming_parameters"),
                         (cli_mod, "hamming_parameters")]:
        spy(module, name)
    system = DiagonalSystem(7, 1, 6)
    assert calls == ["multiplicative_order"]
    calls.clear()
    HammingView(system.field, 1, 6)
    assert calls == []
    assert cli_mod.main(["walks", "--gp", "--p", "3", "--m", "2", "--k", "2",
                         "--from", "0", "--to", "pow:0", "--length", "3"]) == 0
    assert '"agree": true' in capsys.readouterr().out
    assert calls == ["hamming_parameters", "multiplicative_order"]


def test_verify_isomorphism_negative_control(f9, monkeypatch):
    view = HammingView(f9, 1, 2)
    solve = view.solve_word
    low, high = view.block_masks
    shift = view.a * view._width

    def corrupted(x):
        # swap vertex 5's two coordinate blocks; its coordinates are
        # (2, 2), equal blocks, so the second is set to 1 instead
        word = solve(x)
        if x == 5:
            swapped = (word & low) << shift | (word & high) >> shift
            return swapped if swapped != word else word & low | 1 << shift
        return word

    assert coordinates(view, 5) == (2, 2) and corrupted(5) != solve(5)
    assert verify_isomorphism(view)
    monkeypatch.setattr(view, "solve_word", corrupted)
    assert not verify_isomorphism(view)


def test_verify_isomorphism_needs_the_residues_and_no_kernel(f9, monkeypatch):
    view = HammingView(f9, 1, 2)
    solve, last = view.solve_word, view.block_masks[-1]
    residues = kth_power_residues(f9, 2)
    # one residue left out of R_k: it still solves to weight 1
    monkeypatch.setattr(gp_mod, "kth_power_residues",
                        lambda *args: residues - {1})
    assert not verify_isomorphism(view)
    # a linear map with a kernel (the last coordinate dropped), against the
    # set it sends to weight 1: only the weight-0 test can refuse it
    monkeypatch.setattr(view, "solve_word", lambda x: solve(x) & ~last)
    weight_one = frozenset(x for x in range(1, 9) if view.solve_word(x))
    monkeypatch.setattr(gp_mod, "kth_power_residues", lambda *args: weight_one)
    assert not verify_isomorphism(view)


def test_verify_isomorphism_reads_no_table(no_add_table, monkeypatch):
    # GF(7^6), whose add table is over the byte cap: the check reads R_k
    # and the solve alone
    view = DiagonalSystem(7, 1, 6).view

    def refuse(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(gp_mod, "gp_graph", refuse)
    assert verify_isomorphism(view)


def test_gp_graph_cap_checked_before_residues(monkeypatch):
    # GF(2^16): its 2^32-entry add table is over the cap, and listing the
    # 65,535 residues before the cap was read took 1.6 s
    field = build_field(2, 16)
    calls = []
    monkeypatch.setattr(gp_mod, "kth_power_residues",
                        lambda *args: calls.append(args))
    with pytest.raises(FieldTooLarge, match="addition table of GF"):
        gp_graph(field, 1)
    assert not calls


def test_walk_counts_depend_only_on_difference(f64):
    g = gp_graph(f64, 7)
    residues = kth_power_residues(f64, 7)
    for x in (0, 5, 20):
        for y in range(64):
            assert bool(g.adj[x, y]) == (f64.sub_idx(y, x) in residues)


def test_isomorphism_refuses_a_map_that_moves_zero(monkeypatch):
    # [0] = 0 is the induction's base: a map with [0] = [1] is refused on
    # its first solve, before the digit loop reads [0] again at x = 1
    view = DiagonalSystem(3, 1, 2).view
    solve, calls = view.solve_word, []

    def moved(x):
        calls.append(x)
        return solve(x or 1)

    monkeypatch.setattr(view, "solve_word", moved)
    assert verify_isomorphism(view) is False
    assert calls == [0]


def test_view_repr_names_field_k_and_hamming_graph():
    assert repr(DiagonalSystem(3, 1, 2).view) == (
        "HammingView(GF(3^2), k=2, H(2,3))")
