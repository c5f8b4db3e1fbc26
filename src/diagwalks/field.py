"""Exact arithmetic in GF(p^m) on canonical indices.

An element is a plain int, its canonical index in [0, q): the base-p
evaluation of the coefficient vector (ascending degree), so index 0 is
the zero element and indices below p are the constants. Every function
of the package takes and returns elements in this one form.

There is one polynomial arithmetic, `PackedRing`: F_p[x] mod a monic f
on packed words. The modulus search runs Rabin's test on each
candidate's ring, and `FiniteField` is the ring of the modulus found,
with one digit codec and no q-sized state (see its docstring), so the
formula path never loads numpy.

Besides the field, the module holds the two structures the count reads
from it: `kth_power_residues`, the set R_k as a frozenset of indices,
capped at MAX_SUMMANDS elements, and `SubfieldMap`, the solve: the
coordinates of an element over GF(p^a) in the basis {omega^{ik}}, solved
from two tables, one for each half of the element's m digits, of
p^ceil(m/2) and p^floor(m/2) packed vectors. `gp.HammingView` owns what
is read from a solve: its flag-word masks and its table of zero
patterns. `as_index` is the one element-index check; the solve, the
counts and the oracles run it.

`check_field` is the one admission of GF(p^m): `FiniteField`,
`diagonal.diagonal_exponent` and `gp.hamming_parameters` run it before
any other number theory. It refuses p < 2, m < 1 and p^m over
MAX_FIELD_ORDER before it tests p for primality, and that test is
`factorize`, the package's one trial division.

The construction is deterministic: the modulus is always the
lexicographically smallest monic irreducible polynomial (coefficients
compared from the highest degree down), the first candidate in that
order to pass Rabin's test, and the primitive element is the one with
the smallest canonical index, found with q-1 factored once per field.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .errors import (
    BadDecomposition,
    BadParameters,
    DependentBasis,
    EnumerationTooLarge,
    FieldTooLarge,
    KDoesNotDivide,
    NotPrime,
    ReducibleModulus,
    admit,
    as_integer,
    shown,
)

if TYPE_CHECKING:
    import numpy as np

# largest field order accepted: it bounds the one trial division of q-1
# per field, the scan of indices for the primitive element, and the
# q-sized oracle tables
MAX_FIELD_ORDER = 1 << 20
# largest addition table (q^2 entries) that one read of add_table will
# allocate; its build holds the table and at most q(p + 1/p) more entries,
# so this bounds the peak, and the field keeps none of it
MAX_ADD_TABLE_BYTES = 1 << 28
# largest number of summand values an oracle lists, one field operation
# each, before its loop: the (q-1)/k products of R_k in kth_power_residues,
# over the 11,584 of a GP-graph within MAX_ADD_TABLE_BYTES and the 2,040 of
# any Hamming k within MAX_FIELD_ORDER, and the powers of a brute-force pass
MAX_SUMMANDS = 1 << 14


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def check_field(p: int, m: int) -> tuple[int, int]:
    """The one admission of GF(p^m); returns p and m as Python ints. Raises,
    in this order and each before the next test runs: BadParameters unless
    p and m are integers, NotPrime for p < 2, BadParameters for m < 1,
    FieldTooLarge, naming p and m, unless p^m <= MAX_FIELD_ORDER, and
    NotPrime for a composite p. The power is built one factor at a time
    and admitted at each, so a huge p or m stops within 21 steps, and the
    trial division sees no p over the cap."""
    p, m = as_integer("p", p), as_integer("m", m)
    if p < 2:
        raise NotPrime(f"p={shown(p)} is not prime")
    if m < 1:
        raise BadParameters(f"m={shown(m)} must be >= 1")
    q = 1
    for step in range(1, m + 1):
        q *= p
        admit(FieldTooLarge, q, MAX_FIELD_ORDER, "MAX_FIELD_ORDER",
              "p^m with p={}, m={} exceeds p^{} = {}", p, m, step)
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    return p, m


class PackedRing:
    """F_p[x]/(f) for a monic f of degree m >= 1: a word holds the
    coefficient of x^t in slot t, bits [t*B, (t+1)*B)."""

    def __init__(self, p: int, modulus):
        m = len(modulus) - 1
        self.p = p
        self.m = m
        self.modulus = tuple(modulus)
        # Kronecker substitution (von zur Gathen & Gerhard, Modern
        # Computer Algebra, 8.4): the product of two packed words, digits
        # in [0, p-1], is one integer product. Its slot t is
        # sum_{i+j=t} a_i b_j, at most m(p-1)^2. Each slot t = m..2m-2 is
        # taken mod p, to c, and c times the packed digits of x^t mod f
        # (each in [0, p-1]) is added to the low m slots, so a low slot
        # takes at most m-1 folds of at most (p-1)^2 and stays at most
        # (2m-1)(p-1)^2 < 2m(p-1)^2 < 2^B with B = (2m(p-1)^2).bit_length():
        # no slot carries into the next. The bound uses only that f is
        # monic of degree m, not that it is irreducible.
        slot = (2 * m * (p - 1) ** 2).bit_length()
        self._slot = slot
        self._slot_mask = (1 << slot) - 1
        self._low_bits = m * slot
        self._low_mask = (1 << self._low_bits) - 1
        x_m = [(-c) % p for c in self.modulus[:m]]  # x^m mod f
        x_t, self._folds = x_m, []
        for _ in range(m - 1):  # x^t mod f, packed, for t = m..2m-2
            self._folds.append(sum(c << (i * slot) for i, c in enumerate(x_t)))
            top = x_t[-1]
            x_t = [(c + top * f) % p for c, f in zip([0] + x_t[:-1], x_m)]

    # `_word` and `_index` are the one codec between an element index and
    # its digits, and every element operation goes through it but a sum
    # for p = 2, a XOR; `_word` takes the m low base-p digits of any int,
    # so it ends on a negative or out-of-range index too

    def _word(self, i: int) -> int:
        p, slot = self.p, self._slot
        word = 0
        for shift in range(0, self._low_bits, slot):
            i, c = divmod(i, p)
            word |= c << shift
        return word

    def _index(self, word: int) -> int:
        """The element whose digit t is slot t of word mod p."""
        p, slot, mask = self.p, self._slot, self._slot_mask
        idx, place = 0, 1
        while word:
            idx += (word & mask) % p * place
            word >>= slot
            place *= p
        return idx

    def _reduce(self, word: int) -> int:
        """word, of at most m slots, with every slot taken mod p: the
        codec's round trip."""
        return self._word(self._index(word))

    def _product(self, u: int, v: int) -> int:
        """The m low slots of u*v mod f, for reduced words u and v, each
        slot below 2^B but not yet taken mod p (see __init__)."""
        p, slot, mask = self.p, self._slot, self._slot_mask
        word = u * v
        low, high = word & self._low_mask, word >> self._low_bits
        for fold in self._folds:
            c = (high & mask) % p
            if c:
                low += c * fold
            high >>= slot
        return low

    def _power(self, word: int, e: int) -> int:
        """word^e, reduced, by square-and-multiply, for a reduced word and
        e >= 0."""
        product, reduce = self._product, self._reduce
        acc = 1
        while e:
            if e & 1:
                acc = reduce(product(acc, word))
            e >>= 1
            if e:
                word = reduce(product(word, word))
        return acc

    def is_field(self) -> bool:
        """Whether f is irreducible, by Rabin's test (Rabin, "Probabilistic
        algorithms in finite fields", SIAM J. Comput. 1980): x^(p^m) = x,
        and for each prime r | m, g = x^(p^(m/r)) - x has g^(p^m-1) = 1."""
        p, m = self.p, self.m
        if m == 1:
            return True
        power, x, n = self._power, 1 << self._slot, p**m
        if power(x, n) != x:
            return False
        # Now f divides x^(p^m) - x, the product of the monic irreducibles
        # of degree dividing m, so f is squarefree and the ring is a product
        # of fields GF(p^d), d | m (CRT). As p^d - 1 divides p^m - 1,
        # g^(p^m-1) is 1 in each where g is nonzero and 0 where it is zero,
        # so it is 1 exactly when gcd(g, f) = 1, with no polynomial gcd. A
        # factor of degree d < m divides x^(p^(m/r)) - x for a prime r with
        # d | m/r; one of degree m divides none of them.
        minus_x = (p - 1) << self._slot
        return all(power(self._reduce(power(x, p ** (m // r)) + minus_x),
                         n - 1) == 1
                   for r in factorize(m))


def find_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m (high-degree-first lex order):
    the first candidate whose packed ring passes Rabin's test."""
    for high_first in itertools.product(range(p), repeat=m):
        f = tuple(reversed(high_first)) + (1,)
        if PackedRing(p, f).is_field():
            return f
    raise ReducibleModulus(f"no irreducible polynomial found for p={p}, m={m}")


class FiniteField(PackedRing):
    """GF(p^m) with q <= MAX_FIELD_ORDER; immutable after construction.

    The packed ring of `find_modulus(p, m)` on element indices, with
    `_word`/`_index` as the one digit codec for every element operation:
    a product is one `_product`, a power one `_power`, a sum, negation or
    difference one slot-wise sum of multiples of words, and
    `digits`/`index_of` read and write the word's slots. For p = 2 a sum
    is a XOR masked to the m low bits instead. Construction is the
    modulus search and the primitive test, both on packed words. The
    numpy `add_table` is built on each read, for the GP-graph, and numpy
    is imported only then; the field keeps no q-sized state.
    """

    def __init__(self, p, m):
        p, m = check_field(p, m)
        super().__init__(p, find_modulus(p, m))
        self.q = p**m
        # x is primitive when no x^((q-1)/r), r a prime of q-1, is 1
        self._cofactors = [(self.q - 1) // r for r in factorize(self.q - 1)]
        self.omega_idx = self._find_primitive()

    # --- canonical index <-> digit vector, through the packed word ---

    def digits(self, i: int) -> tuple[int, ...]:
        word, slot, mask = self._word(i), self._slot, self._slot_mask
        return tuple(word >> shift & mask
                     for shift in range(0, self._low_bits, slot))

    def index_of(self, coeffs) -> int:
        # as Python ints: a numpy int64 would lose the slots past bit 63
        p, slot, word = self.p, self._slot, 0
        for t, c in enumerate(coeffs):
            if t == self.m:  # digit m would spell an index >= q
                raise BadParameters(f"more than m={t} coefficients for q={self.q}")
            word |= as_integer("coefficient", c) % p << (t * slot)
        return self._index(word)

    # --- arithmetic on indices ---

    # -c = (p-1)c mod p; a slot of word + word, (p-1)*word or word +
    # (p-1)*word is at most p(p-1) <= 2m(p-1)^2 < 2^B, so it carries
    # nowhere (__init__)

    def add_idx(self, i, j):
        if self.p == 2:
            return (i ^ j) & (self.q - 1)
        return self._index(self._word(i) + self._word(j))

    def neg_idx(self, i):
        return self._index((self.p - 1) * self._word(i))

    def sub_idx(self, i, j):
        return self._index(self._word(i) + (self.p - 1) * self._word(j))

    def mul_idx(self, i, j):
        return self._index(self._product(self._word(i), self._word(j)))

    def pow_idx(self, i, e):
        """i^e by square-and-multiply on packed words, i and e admitted."""
        i, e = as_index(self, i), as_integer("exponent", e)
        if e < 0:
            raise BadParameters(f"negative exponent {shown(e)}")
        return self._index(self._power(self._word(i), e))

    def _is_primitive(self, i):
        return all(self.pow_idx(i, e) != 1 for e in self._cofactors)

    def _find_primitive(self):
        # for m > 1 the constants 1..p-1 have orders dividing p - 1 < q - 1
        start = self.p if self.m > 1 else 1
        return next(i for i in range(start, self.q) if self._is_primitive(i))

    # --- the addition table, built on each read for the GP-graph ---

    @property
    def add_table(self) -> np.ndarray:
        """add_table[i, j] = add_idx(i, j), int16 while q < 2^15 and int32
        past it, built on each read and held by the caller alone. Refuses,
        before any allocation, a table of more than MAX_ADD_TABLE_BYTES;
        the build holds the table and at most q(p + 1/p) more entries (see
        `_digit_sums`), so the cap bounds its peak."""
        import numpy as np

        p, q = self.p, self.q
        dtype = np.dtype(np.int16 if q <= (1 << 15) - 1 else np.int32)
        admit(FieldTooLarge, q * q * dtype.itemsize, MAX_ADD_TABLE_BYTES,
              "MAX_ADD_TABLE_BYTES", "the addition table of GF({}^{}) needs "
              "{} bytes", p, self.m)
        return _digit_sums(p, self.m, dtype)

    @property
    def key(self):
        return (self.p, self.m, self.modulus, self.omega_idx)

    def __repr__(self):
        return (f"FiniteField(p={self.p}, m={self.m}, "
                f"modulus={self.modulus}, omega={self.omega_idx})")


def build_field(p, m):
    return FiniteField(p, m)


def _digit_sums(p: int, m: int, dtype) -> np.ndarray:
    """The (p^m, p^m) table whose entry i, j is the index with the base-p
    digits of i and j added mod p, in `dtype`. With h = m // 2 low digits,
    i = i_hi p^h + i_lo, so the table viewed as (p^(m-h), p^h, p^(m-h), p^h)
    is high[i_hi, j_hi] p^h + low[i_lo, j_lo]: one broadcast sum written in
    place, from the tables of m - h and h digits, built first, of
    p^(2m-2h) and p^(2h) entries: q each for even m, q p and q / p for odd
    m. On one digit, row i is 0..p-1 rotated left by i, the window at i of
    0..p-1, 0..p-2: one copy, with no sum to overflow the dtype."""
    import numpy as np

    if m == 1:
        digit = np.arange(p, dtype=dtype)
        return np.lib.stride_tricks.sliding_window_view(
            np.concatenate([digit, digit[:-1]]), p).copy()
    h = m // 2
    a, b = p ** (m - h), p**h
    high, low = _digit_sums(p, m - h, dtype), _digit_sums(p, h, dtype)
    high *= b
    table = np.empty((a, b, a, b), dtype=dtype)
    np.add(high[:, None, :, None], low[None, :, None, :], out=table)
    return table.reshape(a * b, a * b)


def as_index(field: FiniteField, x) -> int:
    """x as an element index of `field`, the one element-index check:
    BadParameters unless x is an integer (so 1.5 or "3" is refused) in
    [0, q)."""
    if type(x) is not int:
        x = as_integer("element", x)
    if not 0 <= x < field.q:
        raise BadParameters(f"element index {shown(x)} out of range for q={field.q}")
    return x


def check_k_divides(q: int, k: int) -> int:
    """k as a Python int: BadParameters unless it is an integer, and
    KDoesNotDivide, naming k, unless it divides q-1; every function taking
    the exponent k of a field checks it here before any arithmetic."""
    k = as_integer("k", k)
    if k < 1 or (q - 1) % k:
        raise KDoesNotDivide(f"k={shown(k)} is not a positive divisor of q-1={q - 1}")
    return k


def kth_power_residues(field: FiniteField, k: int) -> frozenset[int]:
    """R_k = {x^k : x nonzero} as canonical indices, of size (q-1)/k.
    Raises KDoesNotDivide unless k | q-1, and EnumerationTooLarge, naming
    k and q, before the first product when (q-1)/k passes MAX_SUMMANDS."""
    k = check_k_divides(field.q, k)
    size = (field.q - 1) // k
    admit(EnumerationTooLarge, size, MAX_SUMMANDS, "MAX_SUMMANDS",
          "R_k for k={} in GF({}) has (q-1)/k = {} elements", k, field.q)
    step = field.pow_idx(field.omega_idx, k)
    members, x = [], 1
    for _ in range(size):
        members.append(x)
        x = field.mul_idx(x, step)
    return frozenset(members)


# --- F_p linear algebra for the subfield coordinate map ---

def _invert_matrix_mod_p(mat, p):
    """Inverse of a square matrix over F_p, or None if singular."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class SubfieldMap:
    """Coordinates of GF(p^{ab}) over GF(p^a) in the basis {omega^{ik}}.

    The subfield GF(p^a) sits inside the big field as the fixed points of
    the a-fold Frobenius; tau = omega^{(q-1)/(p^a-1)} generates its
    multiplicative group and {1, tau, ..., tau^{a-1}} is an F_p-basis.
    One (ab)x(ab) linear system over F_p is inverted at construction and
    turned into two half tables ("four Russians", Arlazarov, Dinic,
    Kronrod & Faradzev, 1970): the m digits of x are split into its
    ceil(m/2) low and floor(m/2) high digits, and entry v of a half's
    table is the inverse applied to that half spelling v, packed one F_p
    value per slot. A solve is one divmod, two lookups, one packed
    addition and one in-word reduction, whatever m is. The tables hold
    p^ceil(m/2) + p^floor(m/2) ints: 343 + 343 on GF(7^6), 1,024 + 1,024
    on GF(2^20), and at most 10,201 + 101 (GF(101^3)) under
    MAX_FIELD_ORDER. The solve word is the one coordinate form:
    coordinate i is the word under `block_masks[i]`, and
    `gp.HammingView` reads its zero pattern from those blocks. No field
    table is read.
    """

    def __init__(self, field: FiniteField, a: int, b: int, k: int):
        if a * b != field.m:
            raise BadDecomposition(f"m={field.m} != a*b = {a}*{b}")
        self.field, self.a, self.b, self.k = field, a, b, k
        p, m = field.p, field.m
        tau = field.pow_idx(field.omega_idx, (field.q - 1) // (p**a - 1))
        omega_k = field.pow_idx(field.omega_idx, k)
        tau_pows = [field.pow_idx(tau, j) for j in range(a)]
        basis = [field.pow_idx(omega_k, i) for i in range(b)]

        # column (i*a + j) holds the F_p digits of tau^j * omega^{ik}
        cols = [field.digits(field.mul_idx(t, w))
                for w in basis for t in tau_pows]
        mat = [[cols[c][r] for c in range(m)] for r in range(m)]
        inv = _invert_matrix_mod_p(mat, p)
        if inv is None:
            raise DependentBasis(f"{{omega^(ik)}} is not a GF(p^a)-basis "
                                 f"for p={p}, m={m}, k={k}, a={a}")

        # A packed F_p vector holds entry i in bits [i*B, (i+1)*B), each
        # entry reduced to [0, p-1]. Words are added two at a time, so a
        # slot of a sum is at most 2(p-1) < 2^B with B = (2(p-1)).bit_length():
        # no slot carries into the next. `_add` reduces the sum in the
        # word: adding 2^(B-1) - p to a slot (>= 0, as 2^(B-1) > p-1)
        # leaves it at most 2^(B-1) + p - 2 < 2^B and sets its top bit
        # exactly when the slot was >= p; p is subtracted from those slots.
        width = (2 * (p - 1)).bit_length()
        ones = sum(1 << (i * width) for i in range(m))
        self._width = width
        self._shift = width - 1
        self._p = p
        self._bias = ones * ((1 << (width - 1)) - p)
        self._tops = ones << (width - 1)
        block = (1 << (a * width)) - 1
        # coordinate i vanishes iff its a slots, under block_masks[i], do
        self.block_masks = [block << (i * a * width) for i in range(b)]

        packed = [sum(inv[i][j] << (i * width) for i in range(m))
                  for j in range(m)]
        # the low half, ceil(m/2) digits, then the high half; by linearity
        # entry v + d*p^j of a half's table is entry v + d*(column j)
        half = (m + 1) // 2
        self._split = p**half
        self._tables = []
        for columns in (packed[:half], packed[half:]):
            table = [0]
            for column in columns:
                row = table
                for _ in range(p - 1):
                    row = [self._add(v, column) for v in row]
                    table += row
            self._tables.append(table)

    def _add(self, u: int, v: int) -> int:
        """Packed sum of two reduced packed vectors, reduced: for the
        table build and `gp.verify_isomorphism`; `solve_word` inlines it."""
        w = u + v
        over = ((w + self._bias) & self._tops) >> self._shift
        return w - over * self._p

    def solve_word(self, x_idx: int) -> int:
        """The F_p coefficients of x on the basis tau^j * omega^{ik},
        packed in one word: coefficient i*a + j in bits [(i*a+j)*B,
        (i*a+j+1)*B), already reduced mod p, so `block_masks[i]` selects
        the a coefficients that spell coordinate i in the tau-basis.
        Raises BadParameters, through `as_index`, unless x is an element
        index in [0, q); `gp.HammingView.pattern_idx` and
        `gp.verify_isomorphism` both solve here. One divmod splits x into
        its halves, and the sum of their two table entries is reduced as
        `_add` reduces it, inline."""
        high, low = divmod(as_index(self.field, x_idx), self._split)
        lows, highs = self._tables
        word = lows[low] + highs[high]
        over = ((word + self._bias) & self._tops) >> self._shift
        return word - over * self._p
