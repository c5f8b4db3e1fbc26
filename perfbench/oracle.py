"""Independent answer checks for the benchmark, with no tables and no
import of the program under test.

Field elements are coefficient tuples over F_p, ascending by degree, and
an element's canonical index is the base-p evaluation of that tuple, as
the program documents. Everything here is exact integer arithmetic.
"""

from __future__ import annotations


def poly_mulmod(f, g, modulus, p):
    """f*g reduced modulo the monic `modulus`; result has len(modulus)-1 terms."""
    m = len(modulus) - 1
    prod = [0] * (len(f) + len(g) - 1 if f and g else 0)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] += a * b
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(m + 1):
                prod[i - m + j] -= c * modulus[j]
    out = [c % p for c in prod[:m]]
    return out + [0] * (m - len(out))


def poly_powmod(f, e, modulus, p):
    m = len(modulus) - 1
    acc = [1] + [0] * (m - 1)
    base = list(f) + [0] * (m - len(f))
    while e:
        if e & 1:
            acc = poly_mulmod(acc, base, modulus, p)
        base = poly_mulmod(base, base, modulus, p)
        e >>= 1
    return acc


def index_digits(index, p, m):
    out = []
    for _ in range(m):
        out.append(index % p)
        index //= p
    return out


def element_of(literal, p, m):
    """Coefficients of a CLI element literal "c0,c1,..." (or "0")."""
    coeffs = [int(v) % p for v in literal.split(",")]
    return coeffs + [0] * (m - len(coeffs))


def _invert_mod_p(mat, p):
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class HammingCoordinates:
    """Hamming distance from 0 of GF(p^{ab}) elements, in the H(b, p^a)
    given by the basis {tau^j * omega^(ik)}: the number of the b subfield
    coordinates that are nonzero. The distance does not depend on which
    primitive omega or which basis of the subfield is used."""

    def __init__(self, p, a, b, modulus, omega):
        self.p, self.a, self.b = p, a, b
        self.modulus = list(modulus)
        self.omega = omega
        m = a * b
        q = p**m
        self.k = (q - 1) // (b * (p**a - 1))
        w = index_digits(omega, p, m)
        tau = poly_powmod(w, (q - 1) // (p**a - 1), self.modulus, p)
        wk = poly_powmod(w, self.k, self.modulus, p)
        cols = []
        for i in range(b):
            wik = poly_powmod(wk, i, self.modulus, p)
            for j in range(a):
                cols.append(poly_mulmod(poly_powmod(tau, j, self.modulus, p),
                                        wik, self.modulus, p))
        self._inv = _invert_mod_p([[c[r] for c in cols] for r in range(m)], p)

    def distance(self, coeffs):
        p, a = self.p, self.a
        sol = [sum(x * y for x, y in zip(row, coeffs)) % p for row in self._inv]
        return sum(any(sol[i * a:(i + 1) * a]) for i in range(self.b))


def hamming_class_counts(b, Q, k, n_max):
    """N[n][d] and M[n][d] for n <= n_max: the nonzero and all-tuple solution
    counts for an alpha at Hamming distance d from 0, by the distance-class
    recurrence on H(b,Q). One step from class d reaches d-1 in d ways,
    stays in d(Q-2) ways and reaches d+1 in (b-d)(Q-1) ways."""

    def step(v):
        return [
            (d * v[d - 1] if d else 0)
            + d * (Q - 2) * v[d]
            + ((b - d) * (Q - 1) * v[d + 1] if d < b else 0)
            for d in range(b + 1)
        ]

    walks = [[1] + [0] * b]
    alls = [[1] + [0] * b]
    for n in range(n_max):
        walks.append(step(walks[-1]))
        adj = step(alls[-1])
        alls.append([x + k * y for x, y in zip(alls[-1], adj)])
    nonzero = [[k**n * w for w in row] for n, row in enumerate(walks)]
    return nonzero, alls


def small_field_counts(p, m, k, alpha_coeffs, n, nonzero_only):
    """N_n or M_n over GF(p^m) by enumerating the field: the k-th power of
    every element, then an n-fold additive convolution of that value
    distribution. Any irreducible modulus gives the same count for an
    alpha in the prime field, so the smallest one is used. For tiny q."""
    q = p**m
    modulus = next(
        f for f in ([*index_digits(i, p, m), 1] for i in range(q))
        if all(poly_powmod(index_digits(x, p, m), q - 1, f, p)
               == [1] + [0] * (m - 1) for x in range(1, q))
    )

    def index(coeffs):
        return sum(c * p**t for t, c in enumerate(coeffs))

    hits = [0] * q
    for x in range(0 if not nonzero_only else 1, q):
        hits[index(poly_powmod(index_digits(x, p, m), k, modulus, p))] += 1
    digits = [index_digits(i, p, m) for i in range(q)]
    add = [[index([(u + v) % p for u, v in zip(digits[i], digits[j])])
            for j in range(q)] for i in range(q)]
    dist = [1] + [0] * (q - 1)
    for _ in range(n):
        nxt = [0] * q
        for i, w in enumerate(dist):
            if w:
                for j, h in enumerate(hits):
                    if h:
                        nxt[add[i][j]] += w * h
        dist = nxt
    return dist[index(alpha_coeffs)]
