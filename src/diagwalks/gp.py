"""Generalized Paley graphs and their Hamming-graph structure.

Gamma(k, p^m) is the Cayley graph on (F_{p^m}, +) whose connection set is
the k-th power residues. When u = (p^m-1)/k factors as b(p^a - 1) with
m = ab and b > 1, and u is a primitive divisor of p^m - 1 (the order of
p mod u is m), the graph is a Hamming graph H(b, p^a), with an explicit
coordinate isomorphism through the basis {1, w^k, ..., w^{(b-1)k}}.
Without primitivity R_k lies in a proper subfield and the graph is not
connected: Gamma(10, 81) is 9 copies of K_9, not H(4, 3).
`hamming_parameters` is the one test of that condition: `HammingView`
and `diagonal.DiagonalSystem` read their (a, b) from it.
"""

from __future__ import annotations

from .divisibility import multiplicative_order
from .errors import BadDecomposition
from .field import (FiniteField, SubfieldMap, check_field, check_k_divides,
                    kth_power_residues)
from .graphs import DenseGraph


def gp_graph(field: FiniteField, k: int) -> DenseGraph:
    """Cayley graph of the additive group with connection set R_k; it is
    undirected exactly when -1 is in R_k, that is when p = 2 or u is even."""
    import numpy as np

    k = check_k_divides(field.q, k)
    add, q = field.add_table, field.q  # byte-capped: read before R_k, adj
    residues = list(kth_power_residues(field, k))
    # j - i is a k-th power iff j = i + rho for some rho in R_k
    adj = np.zeros((q, q), dtype=np.int8)
    adj[np.arange(q)[:, None], add[:, residues]] = 1
    return DenseGraph(adj)


def hamming_parameters(p: int, m: int, k: int) -> tuple[int, int] | None:
    """The (a, b) with m = ab, b > 1 and u = (p^m-1)/k = b(p^a - 1), where
    u is a primitive divisor of p^m - 1 (the order of p mod u is m); None
    when there is no such pair.

    At most one divisor a of m fits: b(p^a - 1) = m * (p^a - 1)/a, and
    (p^a - 1)/a strictly increases in a for p >= 2, since
    a(p^(a+1) - 1) - (a+1)(p^a - 1) = p^a (ap - a - 1) + 1 > 0. So
    distinct a give distinct u, and the pair is unique.

    `field.check_field` admits GF(p^m) before any order is computed; as u
    divides p^m - 1, the order test factors only m.
    """
    p, m = check_field(p, m)
    k = check_k_divides(p**m, k)
    u = (p**m - 1) // k
    if multiplicative_order(p, u, m) != m:
        return None
    for a in range(1, m):
        if m % a == 0 and u == m // a * (p**a - 1):
            return a, m // a
    return None


class HammingView:
    """The (a,b) coordinate view of a GP-graph as H(b, p^a), with (a, b)
    from `hamming_parameters`."""

    def __init__(self, field: FiniteField, k: int):
        pair = hamming_parameters(field.p, field.m, k)
        if pair is None:
            raise BadDecomposition(
                f"Gamma(k, p^m) is not a Hamming graph for p={field.p}, "
                f"m={field.m}, k={k}: (p^m-1)/k is no primitive divisor "
                f"b(p^a-1) with m = ab, b > 1"
            )
        self.field = field
        self.k = k
        self.a, self.b = pair
        self.map = SubfieldMap(field, self.a, self.b, k)

    def pattern_idx(self, x_idx: int) -> tuple[bool, ...]:
        """Zero pattern of [x]: which Hamming coordinates vanish. A
        coordinate vanishes exactly when its block of F_p coefficients does,
        which one mask tests in the packed solve."""
        word = self.map.solve_word(x_idx)
        return tuple([not word & mask for mask in self.map.block_masks])

    def __repr__(self):
        return (
            f"HammingView(GF({self.field.p}^{self.field.m}), k={self.k}, "
            f"H({self.b},{self.field.p**self.a}))"
        )


def verify_isomorphism(view: HammingView) -> bool:
    """Exhaustively check: y - x in R_k  <=>  dist([x],[y]) = 1, with the
    view's coordinate map. Coordinate i of x is its packed solve word
    under `block_masks[i]`, and two coordinates are equal exactly when
    those bits are, so the distance is read from the words. The graph's
    capped add table is read first; the distances then take only q^2
    bytes."""
    import numpy as np

    field, smap = view.field, view.map
    adj = gp_graph(field, view.k).adj
    # a word has m slots of (2(p-1)).bit_length() <= log2(p) + 2 bits, so
    # at most log2(q) + 2m <= 60 bits under MAX_FIELD_ORDER; numpy raises
    # OverflowError rather than wrap a wider one
    words = np.array([smap.solve_word(x) for x in range(field.q)],
                     dtype=np.int64)
    dist = np.zeros((field.q, field.q), dtype=np.int8)
    for mask in smap.block_masks:
        column = words & mask
        dist += column[:, None] != column[None, :]
    return bool(np.array_equal(adj == 1, dist == 1))
