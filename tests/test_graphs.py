import random

import numpy as np
import pytest

from conftest import enumerate_walks
from diagwalks import DenseGraph, complete_graph, complete_walks
from diagwalks.errors import VertexOutOfRange


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
    with pytest.raises(ValueError):
        DenseGraph(np.array([[0, 1], [0, 0]]))  # asymmetric but undirected
    DenseGraph(np.array([[0, 1], [0, 0]]), directed=True)
    with pytest.raises(ValueError):
        DenseGraph(np.array([[0, 2], [2, 0]]))  # non-0/1 entries


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
