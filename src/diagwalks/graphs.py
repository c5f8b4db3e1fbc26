"""Dense adjacency matrices and exact walk counting by matrix powers.

Matrix powers are taken with Python integers (numpy object arrays), so
counts never overflow; powers are computed by iterated multiplication and
cached on the graph, which makes per-length queries cheap.
"""

from __future__ import annotations

import numpy as np

from .errors import VertexOutOfRange


class DenseGraph:
    """Simple (possibly directed) graph given by its 0/1 adjacency matrix."""

    def __init__(self, adj, directed: bool = False):
        adj = np.asarray(adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if not np.isin(adj, (0, 1)).all():
            raise ValueError("adjacency entries must be 0/1")
        if np.diagonal(adj).any():
            raise ValueError("self-loops are not allowed (nonzero diagonal)")
        if not directed and (adj != adj.T).any():
            raise ValueError("undirected graph requires a symmetric adjacency")
        self.adj = adj.astype(np.int8)
        self.adj.setflags(write=False)
        self.directed = directed
        self._powers = [np.identity(self.n, dtype=object)]

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def walk_matrix(self, r: int) -> np.ndarray:
        """A^r with exact integer entries (A^0 = identity)."""
        if r < 0:
            raise ValueError(f"walk length must be >= 0, got {r}")
        while len(self._powers) <= r:
            self._powers.append(self._powers[-1] @ self.adj.astype(object))
        return self._powers[r]

    def walk_count(self, r: int, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise VertexOutOfRange(f"vertices ({i},{j}) out of range for n={self.n}")
        return int(self.walk_matrix(r)[i, j])

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"DenseGraph(n={self.n}, {kind}, edges={int(self.adj.sum())})"


def complete_graph(m: int) -> DenseGraph:
    if m < 1:
        raise ValueError(f"m={m} must be >= 1")
    adj = np.ones((m, m), dtype=np.int8) - np.identity(m, dtype=np.int8)
    return DenseGraph(adj)


def complete_walks(m: int, r: int, same: bool) -> int:
    """Closed-form r-walk count on K_m between equal / distinct vertices.

    The bracketed difference is always divisible by m; the division is
    exact integer division checked for a zero remainder, never a rounding.
    """
    if m < 1:
        raise ValueError(f"m={m} must be >= 1")
    if r < 0:
        raise ValueError(f"r={r} must be >= 0")
    if r == 0:
        return 1 if same else 0
    if same:
        num = (m - 1) * ((m - 1) ** (r - 1) - (-1) ** (r - 1))
    elif m == 1:
        return 0  # K_1 has no distinct vertex pair
    else:
        num = (m - 1) ** r - (-1) ** r
    walks, rem = divmod(num, m)
    if rem:
        raise ArithmeticError(f"K_{m} walk numerator at r={r} is not divisible by {m}")
    return walks
