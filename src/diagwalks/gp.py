"""Generalized Paley graphs and their Hamming-graph structure.

Gamma(k, p^m) is the Cayley graph on (F_{p^m}, +) whose connection set is
the k-th power residues. When u = (p^m-1)/k factors as b(p^a - 1) with
m = ab and b > 1, and u is a primitive divisor of p^m - 1 (the order of
p mod u is m), the graph is a Hamming graph H(b, p^a), with an explicit
coordinate isomorphism through the basis {1, w^k, ..., w^{(b-1)k}}.
Without primitivity R_k lies in a proper subfield and the graph is not
connected: Gamma(10, 81) is 9 copies of K_9, not H(4, 3). `HammingView`
is the `SubfieldMap` of the caller's (a, b), whose basis decides
primitivity; it builds the zero patterns of all 2^b sets of vanishing
coordinates once, at construction, and reads an element's from its
solve in one word test and one table read. `verify_isomorphism` checks
the map from R_k alone.
"""

from __future__ import annotations

import itertools

from .divisibility import multiplicative_order
from .errors import BadDecomposition, as_integer
from .field import (FiniteField, SubfieldMap, check_field, check_k_divides,
                    kth_power_residues)
from .graphs import DenseGraph


def gp_graph(field: FiniteField, k: int) -> DenseGraph:
    """Cayley graph of the additive group with connection set R_k; it is
    undirected exactly when -1 is in R_k, that is when p = 2 or u is even."""
    import numpy as np

    k = check_k_divides(field.q, k)
    # j - i is a k-th power iff j = i + rho, rho in R_k; the byte-capped table
    # is read before R_k is built and freed before the adjacency is allocated
    ends = field.add_table[:, list(kth_power_residues(field, k))]
    adj = np.zeros((field.q, field.q), dtype=np.int8)
    adj[np.arange(field.q)[:, None], ends] = 1
    return DenseGraph(adj, copy=False)


def hamming_parameters(p: int, m: int, k: int) -> tuple[int, int] | None:
    """The (a, b) with m = ab, b > 1 and u = (p^m-1)/k = b(p^a - 1), where
    u is a primitive divisor of p^m - 1 (the order of p mod u is m); None
    when there is no such pair. For callers that know only k (`walks --gp`).

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


class HammingView(SubfieldMap):
    """Gamma(k, p^m) as H(b, p^a): the `SubfieldMap` of the caller's pair,
    k = (p^m-1)/(b(p^a-1)); BadDecomposition unless m = ab, b > 1 and k is
    an integer. The map's inversion decides primitivity: w^k has order
    u = b(p^a-1), so it lies in GF(p^h), h = ord_u(p), and a | h | m. If
    h < m, the w^{ik} span h/a < b dimensions over GF(p^a): DependentBasis
    (naming p, m, k); if h = m, GF(p^a)(w^k) = GF(p^m) has degree b, so
    they are a basis: the pair of `hamming_parameters`."""

    def __init__(self, field: FiniteField, a: int, b: int):
        a, b = as_integer("a", a), as_integer("b", b)
        p, m, n = field.p, field.m, field.q - 1
        # a*b == m is tested first, so p^a is formed only for 1 <= a < m
        if b < 2 or a * b != m or n % (b * (p**a - 1)):
            raise BadDecomposition(
                f"Gamma(k, p^m) is not a Hamming graph H(b, p^a) for p={p}, "
                f"m={m}, k=(p^m-1)/(b(p^a-1)), a={a}, b={b}: k needs m = ab, "
                f"b > 1 and b(p^a-1) dividing p^m-1")
        super().__init__(field, a, b, n // (b * (p**a - 1)))
        self._flag_table()

    def _flag_table(self):
        """The flag-word masks and the zero pattern of every flag word.
        A block, the a slots of one coordinate under `block_masks[i]`, is
        an aB-bit number whose slots are each at most p-1 < 2^(B-1) (see
        `SubfieldMap`), so it is below 2^(aB-1). Adding 2^(aB-1) - 1, the
        mask's bits but its top one, carries nowhere past the block and
        sets its top bit exactly when the block is nonzero (Lamport, CACM
        1975; Knuth, TAOCP 4A, 7.1.3): `(word + _block_low) & _block_tops`
        reads all b flags of a solve word at once. Each of the 2^b values
        that can give, one per set of nonzero blocks, maps to the tuple
        marking the other blocks, the coordinates that vanish."""
        lows = [mask >> 1 & mask for mask in self.block_masks]
        tops = [mask - low for mask, low in zip(self.block_masks, lows)]
        self._block_low, self._block_tops = sum(lows), sum(tops)
        self._patterns = {
            sum(itertools.compress(tops, flags)): tuple(not f for f in flags)
            for flags in itertools.product((False, True), repeat=self.b)}

    def pattern_idx(self, x_idx: int) -> tuple[bool, ...]:
        """Zero pattern of [x]: which Hamming coordinates vanish. A
        coordinate vanishes exactly when its block of F_p coefficients
        does, and one addition and one mask of the packed solve set the
        top bit of every nonzero block at once; the flag word is a key of
        the table built at construction, all 2^b zero patterns, so
        elements with the same zero set get the same tuple object."""
        return self._patterns[
            (self.solve_word(x_idx) + self._block_low) & self._block_tops]

    def __repr__(self):
        return (f"HammingView(GF({self.field.p}^{self.field.m}), k={self.k}, "
                f"H({self.b},{self.field.p**self.a}))")


def verify_isomorphism(view: HammingView) -> bool:
    """Exhaustively check y - x in R_k <=> dist([x],[y]) = 1 for the view's
    coordinate map [.], from R_k and 2q solves, with no table: [0] = 0;
    [x] = [x - p^t] + [p^t] for each x >= 1, t its highest nonzero digit,
    so [.] is F_p-linear by induction on the digit sum; and [x] has weight
    (nonzero coordinates) 1 exactly when x is in R_k and 0 exactly when
    x = 0. So [.] has no kernel and is a bijection, and dist([x],[y]), the
    weight of [y - x], is 1 exactly when y - x is in R_k."""
    field, solve, masks = view.field, view.solve_word, view.block_masks
    residues = kth_power_residues(field, view.k)
    if solve(0):
        return False
    for t in range(field.m):
        unit = field.p**t
        unit_word = solve(unit)
        for x in range(unit, unit * field.p):  # digit t is x's highest
            word = solve(x)
            weight = sum(1 for mask in masks if word & mask)
            if (word != view._add(solve(x - unit), unit_word) or not weight
                    or (weight == 1) != (x in residues)):
                return False
    return True
