import random
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import enumerate_walks
from diagwalks import DenseGraph, complete_graph, complete_walks
from diagwalks.errors import (BadParameters, ProductTooLarge, VertexOutOfRange,
                              WalkCacheTooLarge)
from diagwalks.graphs import MAX_PRODUCT_BYTES, MAX_WALK_BYTES


def test_zero_length_convention():
    g = complete_graph(5)
    for i in range(5):
        for j in range(5):
            assert g.walk_count(0, i, j) == (1 if i == j else 0)


def test_length_one_is_adjacency():
    g = complete_graph(4)
    for i in range(4):
        for j in range(4):
            assert g.walk_count(1, i, j) == int(g.adj[i, j])


def test_k4_three_walks_off_diagonal():
    # frozen from the independent step-enumeration oracle
    g = complete_graph(4)
    adj = g.adj.tolist()
    assert enumerate_walks(adj, 3, 0, 1) == 7
    assert g.walk_count(3, 0, 1) == 7


def test_complete_graph_shapes():
    assert complete_graph(1).adj.sum() == 0
    assert complete_graph(2).adj.sum() == 2
    assert complete_graph(4).adj.sum() == 12  # 6 undirected edges


def test_complete_walks_examples():
    assert complete_walks(3, 2, same=True) == 2
    for m in (2, 3, 4, 7):
        assert complete_walks(m, 1, same=False) == 1
    assert complete_walks(4, 3, same=False) == 7


def test_complete_walks_edge_cases():
    assert complete_walks(1, 0, same=True) == 1
    assert complete_walks(1, 5, same=True) == 0
    assert complete_walks(1, 5, same=False) == 0
    assert complete_walks(6, 0, same=False) == 0


@pytest.mark.parametrize("m", range(1, 13))
def test_complete_walks_match_matrix_power(m):
    g = complete_graph(m)
    for r in range(7):
        assert complete_walks(m, r, same=True) == g.walk_count(r, 0, 0)
        if m > 1:
            assert complete_walks(m, r, same=False) == g.walk_count(r, 0, 1)


def test_divisibility_guard_sweep():
    for m in range(1, 65):
        for r in range(41):
            assert ((m - 1) ** r - (-1) ** r) % m == 0


def test_regular_row_sums():
    g = complete_graph(5)
    for r in range(5):
        row = [g.walk_count(r, 0, j) for j in range(5)]
        assert sum(row) == 4**r


def test_walk_monotonicity_under_edge_addition():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(3, 7)
        adj = np.zeros((n, n), dtype=np.int8)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adj[i, j] = adj[j, i] = 1
        missing = [(i, j) for i in range(n) for j in range(i + 1, n) if not adj[i, j]]
        if not missing:
            continue
        i, j = rng.choice(missing)
        denser = adj.copy()
        denser[i, j] = denser[j, i] = 1
        g1, g2 = DenseGraph(adj), DenseGraph(denser)
        for r in range(5):
            for u in range(n):
                for v in range(n):
                    assert g2.walk_count(r, u, v) >= g1.walk_count(r, u, v)


def test_validation():
    with pytest.raises(ValueError):
        DenseGraph(np.identity(3, dtype=np.int8))  # self-loops
    assert DenseGraph(np.array([[0, 1], [0, 0]])).directed is True
    assert DenseGraph(np.array([[0, 1], [1, 0]])).directed is False
    with pytest.raises(ValueError):
        DenseGraph(np.array([[0, 2], [2, 0]]))  # non-0/1 entries
    with pytest.raises(ValueError, match="must be square"):
        DenseGraph(np.zeros((2, 3), dtype=np.int8))
    # an integer matrix is checked by its range, any other by its entries
    for bad in (np.array([[0, -1], [1, 0]], dtype=np.int8),
                np.array([[0, 2], [1, 0]], dtype=np.uint8),
                np.array([[0, 0.5], [1, 0]])):
        with pytest.raises(BadParameters, match="0/1"):
            DenseGraph(bad)
    for good in (np.array([[0, 1], [1, 0]], dtype=bool),
                 np.array([[0.0, 1.0], [1.0, 0.0]]),
                 np.array([[0, 1], [1, 0]], dtype=object),
                 np.zeros((0, 0), dtype=np.int64)):
        assert DenseGraph(good).adj.dtype == np.int8


def test_a_callers_matrix_is_never_frozen_or_aliased():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8)
    g = DenseGraph(adj)
    assert adj.flags.writeable and not np.shares_memory(adj, g.adj)
    adj[0, 2] = adj[2, 0] = 1
    adj[0, 1] = 0
    assert g.walk_count(1, 0, 2) == 0 and g.walk_count(1, 0, 1) == 1
    assert g.walk_count(2, 0, 0) == 1 and g.degree == 2
    with pytest.raises(ValueError):
        g.adj[0, 1] = 0


def test_matrix_checked_and_kept_with_no_second_copy():
    # the copy of a caller's int8 matrix is the one n^2 array a build
    # makes: the 0/1 check reads the range, with no bool temporaries (they
    # took 2 bytes per entry); a handed-over matrix is kept as it is
    n = 2048
    adj = np.zeros((n, n), dtype=np.int8)
    adj[0, 1] = 1
    for copy in (True, False):
        tracemalloc.start()
        try:
            g = DenseGraph(adj, copy=copy)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(adj, g.adj) is not copy
        assert peak <= copy * n * n + (1 << 18), (copy, peak)
        assert held <= copy * n * n + (1 << 16), (copy, held)
    assert not adj.flags.writeable  # frozen only once handed over


def test_vertex_out_of_range():
    g = complete_graph(3)
    with pytest.raises(VertexOutOfRange):
        g.walk_count(2, 0, 3)


def test_matrix_power_matches_enumeration_random():
    rng = random.Random(11)
    for _ in range(5):
        n = rng.randint(2, 6)
        adj = np.zeros((n, n), dtype=np.int8)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i, j] = adj[j, i] = 1
        g = DenseGraph(adj)
        for r in range(5):
            for i in range(n):
                for j in range(n):
                    assert g.walk_count(r, i, j) == enumerate_walks(
                        adj.tolist(), r, i, j
                    )


def float_reach(adj):
    """Largest r with D^r <= 2^53, D the largest row sum of adj."""
    degree = int(np.asarray(adj).sum(axis=1).max())
    r = 0
    while degree ** (r + 1) <= 2**53:
        r += 1
    return r


@pytest.mark.parametrize("r", [52, 53, 54, 55, 70])
def test_complete_walks_across_float_bound(r):
    g = complete_graph(3)  # D = 2: A^53 is the last float64 power
    assert g.walk_count(r, 0, 0) == complete_walks(3, r, same=True)
    assert g.walk_count(r, 0, 1) == complete_walks(3, r, same=False)


def test_power_dtype_switches_at_the_bound():
    g = complete_graph(3)
    assert g.walk_matrix(53).dtype == np.int64
    assert g.walk_matrix(54).dtype == object
    assert len(g._powers) == 55  # one cache entry per power


def test_degree_one_graph_stays_in_int64():
    g = complete_graph(2)
    assert g.walk_matrix(200).dtype == np.int64
    assert g.walk_count(200, 0, 0) == complete_walks(2, 200, same=True) == 1
    assert g.walk_count(200, 0, 1) == complete_walks(2, 200, same=False) == 0


def test_random_directed_powers_match_object_reference():
    rng = random.Random(5)
    n = 7
    adj = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.6:
                adj[i, j] = 1
    g = DenseGraph(adj)
    reach = float_reach(adj)
    assert reach < 40  # the loop below crosses the float64 bound
    reference = np.identity(n, dtype=object)
    for r in range(reach + 3):
        power = g.walk_matrix(r)
        assert power.tolist() == reference.tolist()
        assert power.dtype == (np.int64 if r <= reach else object)
        reference = reference @ adj.astype(object)


def test_graph_without_edges():
    g = DenseGraph(np.zeros((4, 4), dtype=np.int8))
    assert g.walk_matrix(0).tolist() == np.identity(4, dtype=int).tolist()
    for r in (1, 2, 100):
        assert not g.walk_matrix(r).any()
        assert g.walk_matrix(r).dtype == np.int64


def test_cache_estimate_bounds_object_powers():
    g = complete_graph(20)  # D = 19: powers past A^12 are object arrays
    g.walk_matrix(40)
    actual = sum(
        power.nbytes + (sum(map(sys.getsizeof, power.flat))
                        if power.dtype == object else 0)
        for power in g._powers
        if power is not None  # A^0, built only when read
    )
    assert actual <= g._cache_bytes(40) <= 1.25 * actual


def test_identity_power_built_only_when_read():
    n = 2048
    tracemalloc.start()
    try:
        g = complete_graph(n)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= n * n + (1 << 16)  # the int8 matrix, no int64 A^0 yet
    assert g._powers == [None]
    assert g.walk_count(1, 0, 1) == 1 and g._powers[0] is None
    assert g.walk_count(0, 5, 5) == 1 and g.walk_count(0, 5, 6) == 0
    assert g._powers[0] is None  # length 0 is i == j, not a read of A^0
    assert (g.walk_matrix(0) == np.identity(n, dtype=np.int64)).all()


def test_walk_powers_peak_memory_per_entry():
    # A^1 is read from the int8 adjacency, and each product casts it to
    # float64: A^2 peaks at the two float64 factors and their product, then
    # at the product and the int64 result (32 bytes per entry before, with
    # an int64 A^1 and a fresh float64 A at every step)
    n = 1024
    g = complete_graph(n)
    tracemalloc.start()
    try:
        assert g.walk_count(1, 0, 1) == 1 and g.walk_count(1, 3, 3) == 0
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert g.walk_count(2, 0, 0) == n - 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < n * n  # no int64 copy of A^1
    assert peak <= 3 * 8 * n * n + (1 << 16)
    assert len(g._powers) == 3 and g._powers[1] is None


def test_walk_powers_keep_no_float_copy():
    # after A^2 the graph holds it as int64 and nothing more: it used to
    # keep a float64 copy of A too, 8 more bytes per entry
    n = 1024
    g = complete_graph(n)
    tracemalloc.start()
    try:
        assert g.walk_count(2, 0, 0) == n - 1
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 8 * n * n + (1 << 16), f"{held} bytes held"


def test_complete_graph_admitted_before_numpy_allocates():
    # K_4097, the smallest K_m over MAX_PRODUCT_BYTES, asked for three
    # 16.8 MB int8 arrays; 10^5000 raised numpy's untyped ValueError
    assert 4096**2 <= MAX_PRODUCT_BYTES < 4097**2
    tracemalloc.start()
    try:
        for m in (4097, 10**5000):
            with pytest.raises(ProductTooLarge, match="MAX_PRODUCT_BYTES"):
                complete_graph(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_walk_cache_cap_checked_before_any_product():
    g = complete_graph(2048)
    tracemalloc.start()
    try:
        with pytest.raises(WalkCacheTooLarge, match=str(MAX_WALK_BYTES)):
            g.walk_matrix(40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(g._powers) == 1


def test_graph_repr_names_order_kind_and_edges():
    assert repr(complete_graph(4)) == "DenseGraph(n=4, undirected, edges=12)"
    arc = DenseGraph(np.array([[0, 1], [0, 0]], dtype=np.int8))
    assert repr(arc) == "DenseGraph(n=2, directed, edges=1)"
