import pytest

from diagwalks import DiagonalSystem, build_field
from diagwalks import diagonal as diagonal_mod
from diagwalks import field as field_mod
from diagwalks import gp as gp_mod
from diagwalks.field import _invert_matrix_mod_p
from diagwalks.verify import DEFAULT_ROSTER as ROSTER


@pytest.fixture(scope="session")
def f9():
    return build_field(3, 2)


@pytest.fixture(scope="session")
def f25():
    return build_field(5, 2)


@pytest.fixture(scope="session")
def f64():
    return build_field(2, 6)


@pytest.fixture
def no_number_theory(monkeypatch):
    """Make every primality, integrality and order test raise, to show a
    refusal comes before any of them."""
    def refuse(*args):
        raise RuntimeError("number theory ran before the field order check")

    for module, name in [(field_mod, "is_prime"),
                         (diagonal_mod, "k_is_integer"),
                         (diagonal_mod, "multiplicative_order"),
                         (gp_mod, "multiplicative_order")]:
        monkeypatch.setattr(module, name, refuse)


@pytest.fixture(scope="session")
def roster_systems():
    return {(p, a, b): DiagonalSystem(p, a, b) for p, a, b in ROSTER}


def enumerate_walks(adj, r, i, j):
    """Independent walk oracle: recursive step enumeration, no matrices."""
    if r == 0:
        return 1 if i == j else 0
    total = 0
    n = len(adj)
    for mid in range(n):
        if adj[i][mid]:
            total += enumerate_walks(adj, r - 1, mid, j)
    return total


def hamming_distance_walks(b, q, r_max):
    """Independent Hamming walk oracle: W[r][d], the r-walks in H(b,q)
    between vertices at distance d, by the distance-class recurrence.
    A vertex at distance d has d neighbours at d-1, d(q-2) at d and
    (b-d)(q-1) at d+1; O(r*b) work, no spectrum and no matrices."""
    rows = [[1] + [0] * b]
    for _ in range(r_max):
        w = rows[-1]
        rows.append([
            (d * w[d - 1] if d else 0)
            + d * (q - 2) * w[d]
            + ((b - d) * (q - 1) * w[d + 1] if d < b else 0)
            for d in range(b + 1)
        ])
    return rows


def list_solver(smap):
    """Reference for `SubfieldMap.solve_idx`: the m x m inverse, rebuilt
    from the map's basis, times the digit vector, one list product per
    element and no packing."""
    field, p, m = smap.field, smap.field.p, smap.field.m
    cols = [field.digits(field.mul_idx(t, w))
            for w in smap.basis for t in smap.tau_pows]
    inv = _invert_matrix_mod_p(
        [[cols[c][r] for c in range(m)] for r in range(m)], p)

    def solve(x_idx):
        d = field.digits(x_idx)
        return [sum(r * v for r, v in zip(row, d)) % p for row in inv]
    return solve
