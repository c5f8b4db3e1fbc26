"""NEPS graph products and their closed-form walk counts.

A NEPS is driven by a basis of 0/1 tuples: each tuple says, per
coordinate, whether a step stays put (0) or moves along an edge of that
factor (1). For any factors, `neps_walks` sums the walk formula over all
length-r sequences of basis tuples, aggregated by their column sums with
a dynamic program, so the cost is polynomial in r instead of |B|^r; its
factor tables may hold numpy arrays of one broadcastable shape, to count
many vertex pairs at once. A NEPS of complete graphs needs no table: its
walks are a spectral sum of 2^n |B| n-fold products, those of the Hamming
graph H(b,q) one of b+1 Krawtchouk-weighted terms, and K_m is the
one-factor case. Each only builds its terms; `_spectral_walks`, the one
kernel, sums their powers and divides. Every cost passes `errors.admit`
against MAX_NEPS_OPS before its first step, those of the s sums of an
M_s too, in O(1) (`admit_hamming_sums`). `hamming_walks` looks its count
up in the one memo, bounded by the bytes it holds, which `cache_info`
reports and `cache_clear` empties; b, q and r are checked only when the
memo misses, and a refusal is never stored. numpy is imported only in
`neps_construct`, whose adjacency `graphs.product_order` admits first.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

from .errors import (ArityMismatch, BadParameters, LengthTableTooShort,
                     NepsWalkTooLarge, admit, as_integer, check_length, shown)
from .graphs import DenseGraph, product_order

# largest cost `errors.admit` lets through here: walk DP state updates,
# factors of the complete-graph terms, or words of the Krawtchouk recurrence,
# of the powers of one sum or of the s sums of an M_s
MAX_NEPS_OPS = 10**7
# bytes the memo of Hamming walk counts may hold, each count and its key
# measured by sys.getsizeof as it is stored; the memo is emptied before a
# count would take it past this. An admitted count is at most
# 2^MAX_COUNT_BITS, about 140 kB, so one entry always fits
MAX_WALK_MEMO_BYTES = 1 << 25
# a key (b, q, d, r) but its q: a 4-tuple and three ints that the walk
# admissions keep below 2^30, one CPython digit each
_KEY_BYTES = sys.getsizeof((0, 0, 0, 0)) + 3 * sys.getsizeof(1)
# bytes the memo holds now
_walk_memo_bytes = 0


class NepsBasis:
    """Non-empty set of distinct 0/1 n-tuples, n >= 1; the all-zero tuple
    is rejected because it would put a loop at every vertex."""

    def __init__(self, tuples):
        try:
            tuples = [tuple(as_integer("basis entry", v) for v in t)
                      for t in tuples]
        except TypeError:  # tuples, or one of its items, is not iterable
            raise BadParameters(f"basis must hold tuples: {tuples!r}") from None
        if not tuples:
            raise BadParameters("basis must be non-empty")
        n = len(tuples[0])
        if not n:
            raise BadParameters("basis tuples must have at least one entry")
        for t in tuples:
            if len(t) != n:
                raise BadParameters(f"mixed tuple lengths in basis: {tuples}")
            if any(v not in (0, 1) for v in t):
                raise BadParameters(f"basis entries must be 0/1, got {t}")
            if not any(t):
                raise BadParameters("all-zero tuple would create self-loops")
        if len(set(tuples)) != len(tuples):
            raise BadParameters(f"duplicate tuples in basis: {tuples}")
        self.n = n
        self.tuples = tuple(sorted(tuples))

    @classmethod
    def standard(cls, n: int) -> "NepsBasis":
        """{e_1, ..., e_n}: the cartesian-sum (Hamming) basis."""
        return cls([tuple(int(i == j) for j in range(n)) for i in range(n)])

    @classmethod
    def parse(cls, literal: str) -> "NepsBasis":
        """Parse a literal like "10;01"; the constructor refuses a non-digit."""
        return cls([tuple(int(c) if c.isdecimal() else c for c in part)
                    for part in literal.split(";")])

    def __repr__(self):
        return f"NepsBasis({';'.join(''.join(map(str, t)) for t in self.tuples)})"

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __eq__(self, other):
        return isinstance(other, NepsBasis) and other.tuples == self.tuples

    def __hash__(self):
        return hash(self.tuples)


# --- product vertex indexing (lexicographic, leftmost factor most significant) ---

def vertex_tuple(index: int, sizes) -> tuple[int, ...]:
    out = []
    for s in reversed(sizes):
        out.append(index % s)
        index //= s
    return tuple(reversed(out))


def agreement_pattern(sizes, vi: int, vj: int) -> tuple[bool, ...]:
    """Per-coordinate equality of two product vertices."""
    ti, tj = vertex_tuple(vi, sizes), vertex_tuple(vj, sizes)
    return tuple(a == b for a, b in zip(ti, tj))


def along_axes(matrix, t: int, n: int):
    """A factor-t square matrix reshaped to broadcast along axes t and n + t
    of a 2n-axis array, whose reshape to (N, N) is in the product's
    lexicographic vertex order."""
    shape = [1] * (2 * n)
    shape[t] = shape[n + t] = matrix.shape[0]
    return matrix.reshape(shape)


def neps_construct(factors, basis: NepsBasis) -> DenseGraph:
    """Build the NEPS adjacency as an int8 sum, over the basis tuples, of
    products of the factors' adjacencies (1) and identities (0), each
    reshaped by `along_axes`, as `verify.formula_walk_matrix` shapes its
    tables. Raises ProductTooLarge, before any product, through
    `graphs.product_order`."""
    n = basis.n
    if n != len(factors):
        raise ArityMismatch(
            f"basis arity {n} != number of factors {len(factors)}"
        )
    total = product_order([g.n for g in factors])
    import numpy as np

    # matrices[t][a]: A_t for a = 1, I for a = 0
    matrices = [(along_axes(np.identity(g.n, dtype=np.int8), t, n),
                 along_axes(g.adj, t, n)) for t, g in enumerate(factors)]
    # The terms have disjoint supports, so the sum stays 0/1: two distinct
    # tuples differ at some i, where one term needs u_i = v_i and the other
    # an edge u_i v_i, and a DenseGraph has no loops.
    acc = np.zeros([g.n for g in factors] * 2, dtype=np.int8)
    for alpha in basis:
        acc += math.prod(pair[a] for pair, a in zip(matrices, alpha))
    return DenseGraph(acc.reshape(total, total), copy=False)


def _dp_updates(n: int, size: int, r: int) -> int:
    """Upper bound on the state updates of the walk DP to length r over a
    basis of `size` n-tuples. Step t < r updates each of its states once
    per tuple. It holds at most (t+1)^n states, the vectors with entries
    in [0, t], and at most C(t+size-1, size-1), the multisets of t tuples.
    Summed over t, these are below (r+1)^(n+1)/(n+1), as u^n is at most
    the integral of x^n over [u, u+1], and equal to C(r+size-1, size)."""
    return size * min((r + 1) ** (n + 1) // (n + 1),
                      math.comb(r + size - 1, size))


def _column_sum_multiplicities(tuples, r):
    """Multiplicity of each column-sum vector over all of B^r. Raises
    NepsWalkTooLarge, before the first step, when the updates could pass
    MAX_NEPS_OPS."""
    n = len(tuples[0])
    admit(NepsWalkTooLarge, _dp_updates(n, len(tuples), r), MAX_NEPS_OPS,
          "MAX_NEPS_OPS", "the NEPS walk sum over {} basis tuples of arity {} "
          "to length {} may make up to {} state updates", len(tuples), n, r)
    states = {(0,) * n: 1}
    for _ in range(r):
        nxt = {}
        for svec, mult in states.items():
            for beta in tuples:
                key = tuple(s + b for s, b in zip(svec, beta))
                nxt[key] = nxt.get(key, 0) + mult
        states = nxt
    return states


def neps_walks(factor_tables, basis: NepsBasis, r: int):
    """Walk count of a NEPS from per-factor walk tables.

    factor_tables[t][length] must be the factor-t walk count between
    the projected vertices, for every length 0..r. The entries are
    integers for one vertex pair, or numpy arrays of one broadcastable
    shape for many pairs, and the count is then an array of that shape.
    Raises BadParameters unless the tables are sequences, and ArityMismatch
    or LengthTableTooShort unless there are n, each covering lengths 0..r.
    """
    r = check_length("r", r)
    try:
        tables = [list(tab) for tab in factor_tables]
    except TypeError:  # factor_tables, or one of its tables, is no sequence
        raise BadParameters(
            f"walk tables {factor_tables!r} are not sequences") from None
    if len(tables) != basis.n:
        raise ArityMismatch(f"{len(tables)} walk tables for arity {basis.n}")
    for t, tab in enumerate(tables):
        if len(tab) <= r:
            raise LengthTableTooShort(f"factor {t} table covers lengths < {shown(r)}")
    total = 0
    for svec, mult in _column_sum_multiplicities(basis.tuples, r).items():
        term = mult
        for t, s in enumerate(svec):
            term = term * tables[t][s]
        total = total + term
    return total


def neps_complete_walks(m_list, basis: NepsBasis, r: int, pattern) -> int:
    """Walks in the NEPS of K_{m_1}, ..., K_{m_n} between vertices agreeing
    where `pattern` is true. Each K_m has eigenvalue mu = m-1 with
    projector entries c/m, c = 1, and mu = -1 with c = m[same] - 1
    (Cvetkovic, Doob & Sachs, Spectra of Graphs, 2.5), so prod m_i * W is
    the sum over the 2^n choices of prod_i c_i (sum_B prod_i mu_i^beta_i)^r,
    and the division is exact. Raises NepsWalkTooLarge before the first
    of the 2^n |B| terms, each an n-fold product, when their n 2^n |B|
    operations pass MAX_NEPS_OPS. `_spectral_walks` sums the terms grouped
    by Lambda, once r is checked against the largest |Lambda|."""
    n = basis.n
    if not (hasattr(m_list, "__len__") and hasattr(pattern, "__len__")):
        raise BadParameters(f"sizes {m_list!r} and pattern {pattern!r} must "
                            f"be sequences, not iterators or scalars")
    if len(m_list) != n or len(pattern) != n:
        raise ArityMismatch(f"{len(m_list)} sizes and pattern length "
                            f"{len(pattern)} for arity {n}")
    m_list = [as_integer("m", m) for m in m_list]
    if any(m < 1 for m in m_list):
        raise BadParameters(f"complete graph sizes must be >= 1, got {m_list}")
    terms = 2**n * len(basis)
    admit(NepsWalkTooLarge, n * terms, MAX_NEPS_OPS, "MAX_NEPS_OPS",
          "the spectral NEPS walk sum takes {} terms of {} factors each, {} "
          "operations", terms, n)
    weights = {}  # Lambda -> summed coefficients of its terms
    for eps in itertools.product((0, 1), repeat=n):
        mu = [-1 if e else m - 1 for m, e in zip(m_list, eps)]
        lam = sum(math.prod(x for x, b in zip(mu, t) if b) for t in basis)
        weights[lam] = weights.get(lam, 0) + math.prod(
            (m * bool(s) - 1) ** e for m, s, e in zip(m_list, pattern, eps))
    top = max(abs(lam) for lam in weights)
    r = check_length("r", r, top)
    if any(m == 1 and not s for m, s in zip(m_list, pattern)):
        return 0  # K_1 has no distinct vertex pair
    return _spectral_walks("the spectral NEPS walk sum", len(weights), top,
                           weights.items(), r, math.prod(m_list))


def complete_walks(m: int, r: int, same: bool) -> int:
    """K_m walks of length r between equal (`same`) or distinct vertices."""
    return neps_complete_walks([m], NepsBasis([(1,)]), r, (same,))


def hamming_walks(b: int, q: int, r: int, zeros) -> int:
    """Walks in H(b,q) between vertices agreeing exactly where `zeros` is true.

    Only the Hamming distance d, the number of false entries, matters.
    H(b,q) has eigenvalues b(q-1) - qj for j = 0..b, weighted by the
    Krawtchouk numbers K_j(d) (Delsarte 1973), so the count is
    q^-b * sum_j K_j(d) (b(q-1) - qj)^r: b+1 exact integer terms, at most
    b(q-1)^r. The weights, |K_j| <= q^b, come from the three-term
    recurrence (j+1) K_{j+1} = ((b-j)(q-1) + j - qd) K_j - (q-1)(b-j+1)
    K_{j-1}, K_0 = 1 (MacWilliams & Sloane 5.7), in (b+1)
    ceil(b bitlen(q) / 64) word operations, admitted by MAX_NEPS_OPS
    before `_spectral_walks` sums the terms. The count is read from the
    memo `_walks`, which checks b, q and r when it misses their key.

    `zeros` is any iterable of b entries, read by truth value: a tuple is
    read as it is and anything else is turned into a tuple once. Ints b, q
    and r and a tuple of True/False entries go straight to the memo.
    """
    if type(b) is not int or type(q) is not int:
        b, q = as_integer("b", b), as_integer("q", q)
    if type(zeros) is not tuple:
        try:
            zeros = tuple(zeros)
        except TypeError:  # zeros is not iterable
            raise BadParameters(
                f"pattern {zeros!r} is not a sequence") from None
    if len(zeros) != b:
        raise ArityMismatch(f"pattern length {len(zeros)} != b={shown(b)}")
    if type(r) is not int:
        r = as_integer("r", r)
    # entries equal to False or True (bools, 0/1 ints, numpy bools) are
    # counted by tuple.count; a pattern holding any other value by truth
    d = zeros.count(False)
    if d + zeros.count(True) != b:
        d = b - sum(map(bool, zeros))
    return _walks(b, q, d, r)


def _spectral_walks(what: str, count: int, top: int, terms, r: int,
                    divisor: int, *what_args) -> int:
    """The one spectral kernel: sum w lambda^r over (lambda, w) in `terms`,
    divided exactly by `divisor`, once the `count` powers, |lambda| <= top,
    pass `errors.admit` before any term: ceil(r ceil(log2 top) / 64) words
    each. `what` names the sum in a refusal, a template filled in with
    `what_args` only then, as `admit` fills its message."""
    admit(NepsWalkTooLarge, count * -(-r * (top - 1).bit_length() // 64),
          MAX_NEPS_OPS, "MAX_NEPS_OPS", what + " raises {} eigenvalues to "
          "the power r={}, {} words", *what_args, count, r)
    total = 0
    for lam, weight in terms:
        total += weight * lam**r
    walks, rem = divmod(total, divisor)
    if rem:
        raise ArithmeticError(f"{what.format(*map(shown, what_args))} at "
                              f"r={r} is not divisible by {shown(divisor)}")
    return walks


def admit_hamming_sums(b: int, q: int, s: int) -> None:
    """Admits the walk sums on H(b,q) of lengths 1..s that M_s adds, each
    priced as `_spectral_walks` prices a memo miss: b+1 powers of
    ceil(i bits / 64) <= (i bits + 63) / 64 words for length i, bits =
    bitlen(b(q-1) - 1), so NepsWalkTooLarge when (b+1)(bits s(s+1)/2 +
    63s) // 64 words pass MAX_NEPS_OPS."""
    bits = (b * (q - 1) - 1).bit_length()
    admit(NepsWalkTooLarge, (b + 1) * (bits * s * (s + 1) // 2
                                       + 63 * s) // 64,
          MAX_NEPS_OPS, "MAX_NEPS_OPS", "M_s for s={} raises the "
          "eigenvalues of H({},{}) to the powers 1..s, {} words", s, b, q)


@lru_cache(maxsize=None)
def _walks(b: int, q: int, d: int, r: int) -> int:
    """The count of `hamming_walks` for Python ints b, q, d, r. A key is
    checked when the memo misses it, and a refusal is not stored:
    BadParameters unless b >= 1 and q >= 2, then `check_length` of r
    against b(q-1)^r. The memo is unbounded in entries and bounded in
    bytes: each count and its key are measured as they are stored, and
    the memo is emptied when the count would take it past
    MAX_WALK_MEMO_BYTES."""
    global _walk_memo_bytes
    if b < 1 or q < 2:
        raise BadParameters(f"bad Hamming parameters b={shown(b)}, "
                             f"q={shown(q)}")
    r = check_length("r", r, b * (q - 1))
    admit(NepsWalkTooLarge, (b + 1) * -(-b * q.bit_length() // 64),
          MAX_NEPS_OPS, "MAX_NEPS_OPS", "the Krawtchouk weights of H({},{}) "
          "take {} word operations", b, q)
    count = _spectral_walks("the sum for H({},{})", b + 1, b * (q - 1),
                            _krawtchouk(b, q, d), r, q**b, b, q)
    # int.__sizeof__ is sys.getsizeof of an int, which has no GC header,
    # without the argument parsing that takes most of getsizeof's time
    size = count.__sizeof__() + q.__sizeof__() + _KEY_BYTES
    if _walk_memo_bytes + size > MAX_WALK_MEMO_BYTES:
        cache_clear()
    _walk_memo_bytes += size
    return count


def _krawtchouk(b: int, q: int, d: int):
    """The b+1 terms (lambda_j = b(q-1) - qj, K_j(d)) of H(b,q), one by one;
    the recurrence's (b-j)(q-1) + j - qd is lambda_j + 2j - qd."""
    lam, weight, previous = b * (q - 1), 1, 0
    for j in range(b + 1):
        yield lam, weight
        weight, previous = ((lam + 2 * j - q * d) * weight
                            - (q - 1) * (b - j + 1) * previous) // (j + 1), weight
        lam -= q


def cache_info() -> dict:
    """Hits, misses, maxsize, currsize and the bytes held of the
    process-wide walk memo; hits and misses count from its last emptying."""
    return {"walks": {**_walks.cache_info()._asdict(),
                      "bytes": _walk_memo_bytes}}


def cache_clear() -> None:
    """Empty the process-wide walk memo."""
    global _walk_memo_bytes
    _walks.cache_clear()
    _walk_memo_bytes = 0
