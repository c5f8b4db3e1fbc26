"""Generalized Paley graphs and their Hamming-graph structure.

Gamma(k, p^m) is the Cayley graph on (F_{p^m}, +) whose connection set is
the k-th power residues. When u = (p^m-1)/k factors as b(p^a - 1) with
m = ab and b > 1, and u is a primitive divisor of p^m - 1 (the order of
p mod u is m), the graph is a Hamming graph H(b, p^a), with an explicit
coordinate isomorphism through the basis {1, w^k, ..., w^{(b-1)k}}.
Without primitivity R_k lies in a proper subfield and the graph is not
connected: Gamma(10, 81) is 9 copies of K_9, not H(4, 3).
"""

from __future__ import annotations

import numpy as np

from .divisibility import multiplicative_order
from .field import FiniteField, SubfieldMap, check_k_divides, kth_power_residues
from .graphs import DenseGraph


def is_primitive_divisor(u: int, p: int, m: int) -> bool:
    """u | p^m - 1 while u divides no smaller p^h - 1 (any h < m): the
    order of p mod u is m."""
    if u < 1:
        raise ValueError(f"u={u} must be >= 1")
    return multiplicative_order(p, u) == m


def gp_is_undirected(p: int, u: int) -> bool:
    """R_k is symmetric iff p = 2 or u is even."""
    return p == 2 or u % 2 == 0


def gp_graph(field: FiniteField, k: int) -> DenseGraph:
    """Cayley graph of the additive group with connection set R_k."""
    check_k_divides(field.q, k)
    add, q = field.add_table, field.q  # byte-capped: read before R_k, adj
    residues = list(kth_power_residues(field, k))
    # j - i is a k-th power iff j = i + rho for some rho in R_k
    adj = np.zeros((q, q), dtype=np.int8)
    adj[np.arange(q)[:, None], add[:, residues]] = 1
    return DenseGraph(adj, directed=not gp_is_undirected(field.p, (q - 1) // k))


def hamming_parameters(p: int, m: int, k: int) -> list[tuple[int, int]]:
    """All (a, b) with m = ab, b > 1 and u = b(p^a - 1), where u is a
    primitive divisor of p^m - 1; may be empty.

    Every pair satisfying the condition is returned; nothing here assumes
    uniqueness.
    """
    check_k_divides(p**m, k)
    u = (p**m - 1) // k
    if not is_primitive_divisor(u, p, m):
        return []
    out = []
    for a in range(1, m + 1):
        if m % a:
            continue
        b = m // a
        if b > 1 and u == b * (p**a - 1):
            out.append((a, b))
    return out


class HammingView:
    """The (a,b) coordinate view of a GP-graph as H(b, p^a)."""

    def __init__(self, field: FiniteField, k: int, a: int, b: int):
        if (a, b) not in hamming_parameters(field.p, field.m, k):
            raise ValueError(
                f"(a={a}, b={b}) is not a Hamming decomposition for "
                f"k={k} over GF({field.p}^{field.m})"
            )
        self.field = field
        self.k = k
        self.a = a
        self.b = b
        self.map = SubfieldMap(field, a, b, k)

    @property
    def alphabet_size(self) -> int:
        return self.field.p**self.a

    def coords_idx(self, x_idx: int) -> tuple[int, ...]:
        return self.map.coords_idx(x_idx)

    def pattern_idx(self, x_idx: int) -> tuple[bool, ...]:
        """Zero pattern of [x]: which Hamming coordinates vanish. A
        coordinate vanishes exactly when its block of F_p coefficients does,
        which one mask tests in the packed solve."""
        word = self.map.solve_word(x_idx)
        return tuple([not word & mask for mask in self.map.block_masks])

    def __repr__(self):
        return (
            f"HammingView(GF({self.field.p}^{self.field.m}), k={self.k}, "
            f"H({self.b},{self.alphabet_size}))"
        )


def verify_isomorphism(view: HammingView, coords_fn=None) -> bool:
    """Exhaustively check: y - x in R_k  <=>  dist([x],[y]) = 1.

    coords_fn overrides the coordinate map (used as a negative control in
    tests); it defaults to the view's own map. The graph's capped add
    table is read first; the distances then take only q^2 bytes.
    """
    field = view.field
    adj = gp_graph(field, view.k).adj
    coords_fn = coords_fn or view.coords_idx
    coords = np.array([coords_fn(x) for x in range(field.q)])
    dist = np.zeros((field.q, field.q), dtype=np.int8)
    for column in coords.T:
        dist += column[:, None] != column[None, :]
    return bool(np.array_equal(adj == 1, dist == 1))
