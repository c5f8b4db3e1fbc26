"""Dense adjacency matrices and exact walk counting by matrix powers.

Powers A^r are computed by iterated multiplication and cached on the
graph, which makes per-length queries cheap. Every entry of A^r is at most
D^r, D the largest row sum of A. While D^r <= 2^53 the product runs in
float64 on BLAS, each product casting A afresh (the graph keeps no float
copy), and is stored as int64, which is exact; past that bound it runs on
Python integers (numpy object arrays), so counts never overflow. A^0 and
A^1 are built as int64 arrays only when read through `walk_matrix`;
`walk_count` answers length 0 as i == j and reads a length-1 count from
the int8 adjacency itself. The cache of powers is capped at
MAX_WALK_BYTES, checked through `errors.admit` before any product.
The int8 adjacencies of `complete_graph` and `neps.neps_construct` are
capped at MAX_PRODUCT_BYTES by `product_order` before numpy allocates
them.

numpy is imported where an array is built: in `DenseGraph.__init__`,
`complete_graph`, and the branch of `walk_matrix` that computes new
powers; `walk_count` on a cached power imports nothing. The closed form
of K_m walks is `neps.complete_walks`, the one-factor NEPS.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import (BadParameters, ProductTooLarge, VertexOutOfRange,
                     WalkCacheTooLarge, admit, as_integer, check_length, shown)

if TYPE_CHECKING:
    import numpy as np

# float64 holds every integer up to 2^53 exactly
FLOAT_EXACT = 1 << 53
# largest cache of powers A^0..A^r that walk_matrix will hold
MAX_WALK_BYTES = 1 << 30
# largest int8 adjacency complete_graph or neps_construct builds: 4096
# vertices
MAX_PRODUCT_BYTES = 1 << 24


class DenseGraph:
    """Simple graph given by its 0/1 adjacency matrix (else BadParameters),
    kept read-only as int8; `directed` scans it for symmetry on each read.

    The graph keeps its own int8 copy of `adj`, so a caller's array is
    never frozen or aliased. With `copy=False` an int8 array is kept as it
    is and frozen: the package's builders (`complete_graph`, `gp.gp_graph`,
    `neps.neps_construct`) hand over the matrix they built this way."""

    def __init__(self, adj, *, copy: bool = True):
        import numpy as np

        adj = np.asarray(adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise BadParameters(f"adjacency must be square, got shape {adj.shape}")
        # an integer matrix is 0/1 when its range is, with no temporaries
        if adj.dtype.kind in "biu":
            zero_one = adj.min(initial=0) >= 0 and adj.max(initial=0) <= 1
        else:
            zero_one = ((adj == 0) | (adj == 1)).all()
        if not zero_one:
            raise BadParameters("adjacency entries must be 0/1")
        if np.diagonal(adj).any():
            raise BadParameters("self-loops are not allowed (nonzero diagonal)")
        self.adj = adj.astype(np.int8, copy=copy)
        self.adj.setflags(write=False)
        # D, the largest row sum; A^r is a float64 product, stored as int64,
        # for every r <= _float_reach
        self.degree = int(self.adj.sum(axis=1, dtype=np.int64).max(initial=0))
        self._float_reach = math.inf
        if self.degree > 1:
            self._float_reach = 0
            while self.degree ** (self._float_reach + 1) <= FLOAT_EXACT:
                self._float_reach += 1
        # one entry per power A^0..A^r; A^0 and A^1 stay None until read
        self._powers = [None]

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def directed(self) -> bool:
        return bool((self.adj != self.adj.T).any())

    def _cache_bytes(self, r: int) -> int:
        """Bytes of the powers A^0..A^r, an exact int: 8 per int64 entry
        (for A^1, per entry of the float64 cast of A that each product
        reads); an object entry is bounded by D^t, so it is estimated as an
        8-byte pointer to a Python int of at most t*log2(D)/30 + 1 30-bit
        digits (24 bytes plus 4 per digit)."""
        exact = min(r, self._float_reach) + 1
        total = 8 * self.n**2 * exact
        objects = r + 1 - exact
        if objects > 0:
            # 30 times the bits of A^exact..A^r, t*log2(D) each: t times
            # the bit length of D^30 - 1, ceil(30*log2(D))
            bits = ((self.degree**30 - 1).bit_length() * (exact + r) * objects
                    // 2)
            total += self.n**2 * (36 * objects - (-4 * bits // 900))
        return total

    def walk_matrix(self, r: int) -> np.ndarray:
        """A^r with exact integer entries (A^0 = identity): an int64 array
        while D^r <= 2^53, an object array of Python ints past it. Raises
        WalkCacheTooLarge, before any product, when the cached powers
        A^0..A^r would take more than MAX_WALK_BYTES."""
        r = check_length("r", r)
        if r < len(self._powers) and self._powers[r] is not None:
            return self._powers[r]
        import numpy as np

        if r >= len(self._powers):
            admit(WalkCacheTooLarge, self._cache_bytes(r), MAX_WALK_BYTES,
                  "MAX_WALK_BYTES", "the walk powers A^0..A^{} of a "
                  "{}-vertex graph need about {} bytes", r, self.n)
        while len(self._powers) <= r:
            t = len(self._powers)
            prev = self.adj if t == 2 else self._powers[-1]
            if t == 1:
                power = None
            elif t <= self._float_reach:
                # Exact: every entry of A^t, and every partial sum BLAS
                # forms in any order, is a non-negative integer at most
                # D^t <= 2^53, and a double holds all such integers exactly.
                power = (prev.astype(np.float64) @ self.adj.astype(np.float64)
                         ).astype(np.int64)
            else:
                power = prev.astype(object, copy=False) @ self.adj.astype(object)
            self._powers.append(power)
        if self._powers[r] is None:
            self._powers[r] = (np.identity(self.n, dtype=np.int64) if r == 0
                               else self.adj.astype(np.int64))
        return self._powers[r]

    def walk_count(self, r: int, i: int, j: int) -> int:
        """A^r[i, j]; r, i and j are admitted before any read."""
        if type(r) is not int or r < 0:
            r = check_length("r", r)
        if type(i) is not int or type(j) is not int:
            i, j = as_integer("i", i), as_integer("j", j)
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise VertexOutOfRange(f"vertices ({shown(i)},{shown(j)}) out "
                                   f"of range for n={self.n}")
        if r == 0:
            return int(i == j)
        if r == 1:
            return int(self.adj[i, j])
        return int(self.walk_matrix(r)[i, j])

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"DenseGraph(n={self.n}, {kind}, edges={int(self.adj.sum())})"


def product_order(sizes) -> int:
    """Vertices of a product of graphs with `sizes` vertices each. Raises
    ProductTooLarge when its int8 adjacency would take more than
    MAX_PRODUCT_BYTES, so a caller can check before building a factor."""
    total = math.prod(sizes)
    admit(ProductTooLarge, total * total, MAX_PRODUCT_BYTES,
          "MAX_PRODUCT_BYTES", "the adjacency of a {}-vertex product needs "
          "{} bytes", total)
    return total


def complete_graph(m: int) -> DenseGraph:
    """K_m, admitted by `product_order` before numpy allocates."""
    m = as_integer("m", m)
    if m < 1:
        raise BadParameters(f"m={shown(m)} must be >= 1")
    product_order([m])
    import numpy as np

    return DenseGraph(np.ones((m, m), dtype=np.int8)
                      - np.identity(m, dtype=np.int8), copy=False)

