"""Exact solution counts for x_1^k + ... + x_s^k = alpha.

N_r counts solutions with every coordinate nonzero; M_s lets coordinates
range over the whole field. Both are methods of `DiagonalSystem`, the
one formula evaluator: N_r multiplies k^r into the Hamming walk count
determined by the zero pattern of alpha's subfield coordinates
(`HammingView.pattern_idx`), solved once for a run of calls on one
alpha; M_s is assembled from the N_i by choosing which coordinates
vanish, plus the all-zero tuple when alpha = 0.

Three independent oracles ship alongside the formula: a literal
enumeration of all tuples (each value sum a carry-free integer sum of
packed digit words, grouped by that sum, at most nnz*d <= base^t
additions to extend nnz bins by d distinct words), an r-fold additive
convolution over the group, walked out from 0 through R_k and holding
only the elements it reaches, and the walk bridge, k^r times a
matrix-power walk count on the generalized Paley graph. The first two
return the counts of every length t = 0..r from one pass.
"""

from __future__ import annotations

import operator
import sys
from typing import TYPE_CHECKING

from .divisibility import k_is_integer, multiplicative_order, remark_cases
from .errors import (MAX_COUNT_BITS, BadParameters, EnumerationTooLarge,
                     KNotInteger, NotPrimitiveDivisor, admit, as_integer,
                     check_length)
from .field import (FiniteField, as_index, build_field, check_field,
                    check_k_divides, kth_power_residues)
from .gp import HammingView, gp_graph
from .neps import hamming_walks

if TYPE_CHECKING:
    import numpy as np

# largest number of values one brute-force pass writes: its additions, the
# bins it counts them in and the entries of the returned rows; a pass also
# runs fewer lengths than this number has bits
MAX_ENUM_TUPLES = 10**8
# largest number of field powers one brute-force pass takes, one pow_idx
# per summand value, checked before the first and before numpy is loaded:
# GF(2^16) is refused at once
MAX_ENUM_POWERS = 1 << 14
# largest number of add_idx calls the convolution oracle makes
MAX_CONVOLUTION_OPS = 10**7
# largest estimated size of the rows g_0..g_r it returns, whose entries
# grow by log2(q) bits a step
MAX_CONVOLUTION_BYTES = 1 << 26
# bytes a DiagonalSystem's table of small powers k^0, k^1, ... may take,
# counting each int and its 8-byte list slot: 100 powers of the k = 2 of
# (3,1,2), 54 of the 12-bit k of (7,1,6), 15 of a 256-bit k. It is built
# once with the system and never grows; a longer N_r forms k^r itself
MAX_K_POWERS_BYTES = 1 << 12


def diagonal_exponent(p: int, a: int, b: int) -> int:
    """k = (p^{ab}-1)/(b(p^a-1)), the exponent of the diagonal equation.
    Raises, in this order and each before the next test runs:
    BadParameters unless a >= 1 and b >= 2 are integers; the errors of
    `field.check_field` for GF(p^{ab}) (BadParameters, NotPrime,
    FieldTooLarge); and KNotInteger, with the divisibility report, when k
    is not an integer."""
    a, b = as_integer("a", a), as_integer("b", b)
    if b < 2 or a < 1:
        raise BadParameters(f"need a >= 1 and b > 1, got a={a}, b={b}")
    p, _ = check_field(p, a * b)
    if not k_is_integer(p, a, b):
        raise KNotInteger(
            f"(p^{{ab}}-1)/(b(p^a-1)) is not an integer for "
            f"p={p}, a={a}, b={b}",
            report=remark_cases(p, a, b),
        )
    return (p ** (a * b) - 1) // (b * (p**a - 1))


class DiagonalSystem:
    """Counting context for fixed (p, a, b) with k = (p^{ab}-1)/(b(p^a-1))."""

    def __init__(self, p: int, a: int, b: int):
        k = diagonal_exponent(p, a, b)
        p, a, b = map(operator.index, (p, a, b))  # admitted as ints above
        m, u = a * b, b * (p**a - 1)
        h = multiplicative_order(p, u, m)  # u divides p^m - 1
        if h != m:
            raise NotPrimitiveDivisor(
                f"u=b(p^a-1)={u} is not a primitive divisor of p^m-1="
                f"{p**m - 1}: it already divides p^{h}-1={p**h - 1} with "
                f"h={h} < m={m}"
            )
        self.p = p
        self.a = a
        self.b = b
        self.m = m
        self.field = build_field(p, m)
        self.q = self.field.q
        self.Q = p**a
        self.k = k
        self.view = HammingView(self.field, a, b)
        # N_r <= (q-1)^r and M_s <= q^s: past this, check_length decides
        self._max_n = MAX_COUNT_BITS // self.q.bit_length()
        # one-slot memo (index, zero pattern) of the last alpha solved; no
        # int equals None, so the first call solves
        self._pattern = (None, ())
        # k^0, k^1, ... while they fit MAX_K_POWERS_BYTES; every r they
        # reach is one check_length admits, as r <= _max_n
        powers, held = [1], 8 + sys.getsizeof(1)
        while len(powers) <= self._max_n:
            power = powers[-1] * k
            held += 8 + sys.getsizeof(power)
            if held > MAX_K_POWERS_BYTES:
                break
            powers.append(power)
        self._k_powers = powers

    def count_nonzero(self, alpha, r: int) -> int:
        """N_r(alpha): k^r times the Hamming walk count for alpha's zero
        pattern. r and alpha are checked on every call, alpha once: any
        alpha but an int (a numpy int, a bool, an array, a float) goes
        through `as_index` before it meets the memo, and an int alpha is
        admitted by the solve in `pattern_idx` when it misses the memo.
        The pattern is solved only when alpha differs from the previous
        call's, so a run of calls on one alpha solves it once, and a
        refused alpha leaves the memo as it was. An int r the system's
        table of small powers (MAX_K_POWERS_BYTES) holds is admitted by
        the lookup of k^r; any other r goes through `check_length`, and
        k^r is formed."""
        powers = self._k_powers
        if type(r) is int and 0 <= r < len(powers):
            k_r = powers[r]
        else:
            r = check_length("r", r, self.q - 1)
            k_r = self.k**r
        if type(alpha) is not int:
            alpha = as_index(self.field, alpha)
        memo_idx, pattern = self._pattern
        if alpha != memo_idx:
            pattern = self.view.pattern_idx(alpha)
            self._pattern = (alpha, pattern)
        return k_r * hamming_walks(self.b, self.Q, r, pattern)

    def count_all(self, alpha, s: int) -> int:
        """M_s(alpha): sum of binomial(s,i) N_i, plus 1 for the trivial
        solution when alpha = 0. The binomials are taken one from the last,
        C(s,i) = C(s,i-1)(s-i+1)/i, an exact division. It makes one
        `count_nonzero` call per i, bound once before the loop, and the s
        calls share one solve of alpha's zero pattern."""
        if type(s) is not int or not 0 <= s <= self._max_n:
            s = check_length("s", s, self.q)
        idx = as_index(self.field, alpha)
        count_nonzero = self.count_nonzero
        total = 1 if idx == 0 else 0
        binom = 1
        for i in range(1, s + 1):
            binom = binom * (s - i + 1) // i
            total += binom * count_nonzero(idx, i)
        return total

    def __repr__(self):
        return (
            f"DiagonalSystem(p={self.p}, a={self.a}, b={self.b}, "
            f"q={self.q}, k={self.k})"
        )


# --- walk bridge ---

def walk_solution_count(field: FiniteField, k: int, x, y, s: int) -> int:
    """k^s times the s-walk count from x to y on the GP-graph; equals the
    number of nonzero tuples with x + sum(x_i^k) = y. Builds the graph on
    every call, after `gp_graph` has checked k; a caller asking for many
    counts builds it once with `gp_graph` and reads `walk_count` on it."""
    s = check_length("s", s, field.q - 1)
    xi = as_index(field, x)
    yi = as_index(field, y)
    return k**s * gp_graph(field, k).walk_count(s, xi, yi)


# --- oracle 1: literal enumeration ---

def brute_force_distribution(field: FiniteField, k: int, r: int,
                             restrict_nonzero: bool = True) -> np.ndarray:
    """Counts for every length t = 0..r and every alpha, from one literal
    enumeration of the r-tuples: row t of the (r+1, q) result counts the
    t-tuples summing to each alpha.

    Each power x^k is written as its m base-p digits packed in base
    R = r(p-1)+1. A sum of t <= r such words adds digit by digit with no
    carry, as no digit sum passes r(p-1) < R, so the value sum of every
    tuple is one integer sum, counted in one of R^m bins. Row t-1 is held
    as its nonzero bins and their int64 counts, and step t adds each
    distinct word, weighted by the number of summand values packing to
    it: the same enumeration, grouped by the distributive law. A step
    loops over the shorter of its nnz bins and d words and adds the other
    axis, scaled, with one indexed add a turn, exact as neither axis
    repeats a bin; so it makes at most nnz*d <= base^t additions in R^m
    bins of memory. Only the bins a row reaches are mapped to elements,
    each base-R digit taken mod p, and their counts added onto the q
    elements of the row. Raises KDoesNotDivide, and, before numpy is
    loaded, EnumerationTooLarge when the pass runs to
    r >= log2(MAX_ENUM_TUPLES), writes more than MAX_ENUM_TUPLES values or
    takes more than MAX_ENUM_POWERS powers.
    """
    k = check_k_divides(field.q, k)
    r = check_length("r", r)
    p, m, q = field.p, field.m, field.q
    base = (q - 1) if restrict_nonzero else q
    # the length bound first, so the writes are summed over at most 26
    # steps: at most base^t additions for each step t = 1..r, R^m bins for
    # each row, and (r+1)*q row entries. The bins a row reaches, with their
    # counts and elements, are no more than the additions that reached them
    admit(EnumerationTooLarge, r, MAX_ENUM_TUPLES.bit_length() - 1,
          "MAX_ENUM_TUPLES.bit_length() - 1",
          "a brute-force pass runs to r={}")
    radix = r * (p - 1) + 1
    bins = radix**m
    writes = (r + 1) * (q + bins) + sum(base**t for t in range(1, r + 1))
    admit(EnumerationTooLarge, writes, MAX_ENUM_TUPLES, "MAX_ENUM_TUPLES",
          "a pass to r={} writes at least {} values", r)
    admit(EnumerationTooLarge, base if r else 0, MAX_ENUM_POWERS,
          "MAX_ENUM_POWERS", "a pass over GF({}^{}) takes {} field powers",
          p, m)
    import numpy as np

    dist = np.zeros((r + 1, q), dtype=np.int64)
    dist[0, 0] = 1
    if r == 0:
        return dist
    domain = range(1, q) if restrict_nonzero else range(q)
    powers = np.array([field.pow_idx(x, k) for x in domain], dtype=np.intp)
    words = np.zeros_like(powers)
    for t in range(m):
        words += powers // p**t % p * radix**t
    # each distinct word once, with the number of summand values it packs
    mult = np.bincount(words)
    distinct = np.flatnonzero(mult)
    mult = mult[distinct]
    ids, counts = np.zeros(1, dtype=np.intp), np.ones(1, dtype=np.int64)
    for t in range(1, r + 1):
        nxt = np.zeros(bins, dtype=np.int64)
        (outer, weight), (inner, scale) = sorted(
            [(ids, counts), (distinct, mult)], key=lambda axis: len(axis[0]))
        # inner never repeats a bin, so one indexed add is exact
        for i, c in zip(outer.tolist(), weight.tolist()):
            nxt[inner + i] += c * scale
        ids = np.flatnonzero(nxt)
        counts = nxt[ids]
        # bin w goes to the element whose digit j is digit j of w mod p
        np.add.at(dist[t], sum(ids // radix**j % radix % p * p**j
                               for j in range(m)), counts)
    return dist


def brute_force_count(field: FiniteField, k: int, alpha, r: int,
                      restrict_nonzero: bool = True) -> int:
    idx = as_index(field, alpha)
    return int(brute_force_distribution(field, k, r, restrict_nonzero)[r, idx])


# --- oracle 2: additive convolution ---

def convolution_distribution(field: FiniteField, k: int, r: int,
                             restrict_nonzero: bool = True) -> list[dict]:
    """The t-fold additive convolutions g_0..g_r of f(beta) = k*[beta in
    R_k] (+1 at beta = 0 when zeros are allowed), walked out from 0: row t
    maps each element a t-sum of support values reaches to its exact
    weight; every other element has weight 0. Raises KDoesNotDivide, and,
    before R_k is built, EnumerationTooLarge when the add_idx calls could
    pass MAX_CONVOLUTION_OPS or the rows MAX_CONVOLUTION_BYTES, or, from
    `kth_power_residues`, when R_k passes field.MAX_RESIDUES."""
    r = check_length("r", r)
    q, k = field.q, check_k_divides(field.q, k)
    # the support has (q-1)/k values, one more with zeros, so row t holds
    # at most n_t = min(size^t, q) entries and step t+1 makes size*n_t
    # add_idx calls; from t = q.bit_length() on, n_t no longer changes
    size, t0 = (q - 1) // k + (not restrict_nonzero), min(r, q.bit_length())
    reach = [min(size**t, q) for t in range(t0 + 1)]
    ops = size * (sum(reach[:-1]) + (r - t0) * reach[-1])
    admit(EnumerationTooLarge, ops, MAX_CONVOLUTION_OPS,
          "MAX_CONVOLUTION_OPS", "{} convolution steps need up to {} add_idx "
          "calls", r)
    # a row is a pointer to a dict of 240 bytes with its 8-slot table; an
    # entry (the support's too) takes at most 60 bytes of a grown table, a
    # 28-byte key unless one of CPython's shared ints below 257, and a
    # weight of t*log2(base) bits: 24 bytes, 4 per 30-bit digit, 3 spare,
    # with 30*log2(base) taken as ceil(30*log2(base)), the bit length of
    # base^30 - 1. Each step makes a call, so the cap above bounds r here
    base = q - 1 if restrict_nonzero else q
    entries = size + sum(reach[:-1]) + reach[-1] * (r - t0 + 1)
    t_sum = (sum(t * n for t, n in enumerate(reach[:-1]))
             + reach[-1] * (r + t0) * (r - t0 + 1) // 2)
    bits = (base**30 - 1).bit_length() * t_sum  # 30 times the weights' bits
    row_bytes = (248 * (r + 1) + (96 + 28 * (q > 257)) * entries
                 - (-4 * bits // 900))
    admit(EnumerationTooLarge, row_bytes, MAX_CONVOLUTION_BYTES,
          "MAX_CONVOLUTION_BYTES", "{} convolution steps need about {} bytes "
          "of rows", r)
    support = [(beta, k) for beta in kth_power_residues(field, k)]
    if not restrict_nonzero:
        support.append((0, 1))
    rows = [{0: 1}]
    for _ in range(r):
        nxt = {}
        for alpha, weight in rows[-1].items():
            for beta, f in support:
                gamma = field.add_idx(alpha, beta)
                nxt[gamma] = nxt.get(gamma, 0) + weight * f
        rows.append(nxt)
    return rows
