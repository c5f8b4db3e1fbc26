"""Self-verification suites: every closed formula against an independent oracle.

`run_all` builds one `DiagonalSystem` per roster triple and hands it to
the five per-triple checks, each returning one CheckResult:

- triple and convolution agreement: `count_nonzero` against the literal
  enumeration, whose step t extends the nnz bins of its tuples' packed
  sums by the d distinct packed words in at most nnz*d <= base^t
  additions, and, in a check of its own, the additive convolution, for
  every alpha, one call to each oracle giving every r <= max_r;
- walk bridge: the same counts against k^r times matrix-power walks on
  the triple's generalized Paley graph, built once for the check;
- isomorphism: the system's own `HammingView` against R_k;
- partition: the sums of N_r and M_s over alpha.

Two checks do not depend on the roster:

- NEPS oracle: `neps_walks` from per-factor walk tables against the
  matrix power of the constructed product, on random instances, every
  vertex pair in one call (`formula_walk_matrix`);
- the two closed-form walk displays of the K3 x K4 examples.

A failure carries the first counterexample in full so it can be
reproduced from the command line. A per-triple check that a resource cap
refuses (a `CapExceeded`, such as the literal enumeration's
EnumerationTooLarge on a large field) is reported as skipped, naming the
error, and the suite goes on, so each oracle is skipped on its own.
"""

from __future__ import annotations

import itertools
import random
from math import comb, prod
from typing import TYPE_CHECKING, NamedTuple

from .diagonal import (
    DiagonalSystem,
    brute_force_distribution,
    convolution_distribution,
)
from .errors import CapExceeded, check_length
from .gp import gp_graph, verify_isomorphism
from .graphs import DenseGraph, complete_graph
from .neps import (NepsBasis, along_axes, complete_walks, neps_construct,
                   neps_walks)

if TYPE_CHECKING:
    import numpy as np

# int64 holds every integer below 2^63
INT64_LIMIT = 1 << 63

DEFAULT_ROSTER = [(3, 1, 2), (5, 1, 2), (7, 1, 2), (2, 2, 3), (3, 2, 2)]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False  # refused by a cap; ok, as nothing failed

    def line(self) -> str:
        status = "SKIP" if self.skipped else "PASS" if self.ok else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}{suffix}"


def _triple(system: DiagonalSystem) -> str:
    return f"p={system.p} a={system.a} b={system.b}"


def _agreement(system: DiagonalSystem, max_r: int, name: str,
               oracle) -> CheckResult:
    """The one compare loop of the oracle checks: `count_nonzero(alpha, r)`
    against oracle(alpha, r) for every alpha and r <= max_r; the first
    disagreement, with both counts, is the failure's detail."""
    # alpha outer, so the r <= max_r calls on one alpha share its solve
    for alpha in range(system.q):
        for r in range(max_r + 1):
            formula, other = system.count_nonzero(alpha, r), oracle(alpha, r)
            if formula != other:
                return CheckResult(name, False, (
                    f"{_triple(system)} alpha={alpha} r={r}: "
                    f"formula={formula} oracle={other}"))
    return CheckResult(name, True)


def check_triple_agreement(system: DiagonalSystem, max_r=3) -> CheckResult:
    """Formula vs literal enumeration, every alpha."""
    field, k, q = system.field, system.k, system.q
    brute = brute_force_distribution(field, k, max_r, True)
    return _agreement(system, max_r, f"triple-agreement {_triple(system)} "
                      f"(q={q}, k={k}, r<={max_r})",
                      lambda alpha, r: int(brute[r, alpha]))


def check_convolution_agreement(system: DiagonalSystem,
                                max_r=3) -> CheckResult:
    """Formula vs additive convolution, every alpha; the rows map only
    the elements they reach, and any other alpha weighs 0."""
    field, k, q = system.field, system.k, system.q
    conv = convolution_distribution(field, k, max_r, True)
    return _agreement(system, max_r, f"convolution-agreement "
                      f"{_triple(system)} (q={q}, k={k}, r<={max_r})",
                      lambda alpha, r: conv[r].get(alpha, 0))


def check_walk_bridge(system: DiagonalSystem, max_r=3) -> CheckResult:
    """k^r * (walks from 0 to alpha on the GP-graph, built once here) must
    equal N_r(alpha)."""
    graph, k = gp_graph(system.field, system.k), system.k
    return _agreement(system, max_r, f"walk-bridge {_triple(system)} "
                      f"(r<={max_r})",
                      lambda alpha, r: k**r * graph.walk_count(r, 0, alpha))


def check_isomorphisms(system: DiagonalSystem, max_r=3) -> CheckResult:
    """The system's coordinate map is a GP/Hamming isomorphism; max_r is
    unused, so that all five per-triple checks share one signature."""
    return CheckResult(
        f"isomorphism Gamma({system.k},{system.q}) ~ "
        f"H({system.b},{system.Q})",
        verify_isomorphism(system.view),
    )


def check_partition(system: DiagonalSystem, max_r=3) -> CheckResult:
    """Sum over alpha of N_r is (q-1)^r; of M_s is q^s."""
    q = system.q
    name = f"partition {_triple(system)} (n<={max_r})"
    sums_n, sums_m = [0] * (max_r + 1), [0] * (max_r + 1)
    # alpha outer, so the n <= max_r calls on one alpha share its solve
    for alpha in range(q):
        for n in range(max_r + 1):
            sums_n[n] += system.count_nonzero(alpha, n)
            sums_m[n] += system.count_all(alpha, n)
    for n, total_n, total_m in zip(range(max_r + 1), sums_n, sums_m):
        if total_n != (q - 1) ** n or total_m != q**n:
            return CheckResult(name, False, (
                f"{_triple(system)} n={n}: sum N={total_n} "
                f"(want {(q - 1) ** n}), sum M={total_m} (want {q**n})"
            ))
    return CheckResult(name, True)


def _run_capped(check, system: DiagonalSystem, max_r: int) -> CheckResult:
    """check(system, max_r), or, when a cap refuses it, a skipped result
    named after the check and the triple, with the error's class and
    message as its detail."""
    try:
        return check(system, max_r)
    except CapExceeded as exc:
        name = check.__name__.removeprefix("check_").replace("_", "-")
        return CheckResult(f"{name} {_triple(system)}", True,
                           f"{type(exc).__name__}: {exc}", skipped=True)


def random_graph(rng: random.Random, n: int):
    """Random simple undirected graph on n vertices."""
    import numpy as np

    # one draw per pair i < j, in row order, the order in which a boolean
    # mask assignment fills the upper triangle
    index = np.arange(n)
    adj = np.zeros((n, n), dtype=np.int8)
    adj[index[:, None] < index] = [rng.random() < 0.6
                                   for _ in range(n * (n - 1) // 2)]
    return DenseGraph(adj | adj.T, copy=False)


def random_neps_instance(rng: random.Random):
    n = rng.randint(1, 3)
    sizes = [rng.randint(2, 5) for _ in range(n)]
    factors = [
        complete_graph(m) if rng.random() < 0.4 else random_graph(rng, m)
        for m in sizes
    ]
    tuples = [t for t in itertools.product((0, 1), repeat=n) if any(t)]
    count = rng.randint(1, len(tuples))
    basis = NepsBasis(rng.sample(tuples, count))
    r = rng.randint(0, 5)
    return factors, basis, r


def formula_walk_matrix(factors, basis: NepsBasis, r: int) -> np.ndarray:
    """`neps_walks` for every vertex pair of the product in one call. Factor
    t's table holds A_t^0..A_t^r, shaped to broadcast along the other
    factors' axes, as int64 arrays when D^r < 2^63 (see below) and as
    exact object arrays otherwise; the count array is reshaped to the
    product's lexicographic vertex order.

    Exact in int64 when D^r < 2^63, D = sum over beta in B of
    prod_t d_t^beta_t, d_t = max(1, largest row sum of factor t). A term of
    the sum is c(s) * prod_t A_t^{s_t}[i_t, j_t], c(s) the number of words
    in B^r with column sums s, and every entry of A_t^{s_t} is a
    non-negative integer at most d_t^{s_t}. As every d_t >= 1, each
    partial product, a prefix of a term (c(s) alone included), is at most
    c(s) * prod_t d_t^{s_t}, and each partial sum of the non-negative
    terms is at most the sum of those bounds over all s, which is D^r by
    the multinomial expansion of (sum_beta prod_t d_t^beta_t)^r."""
    import numpy as np

    n, total = len(factors), prod(g.n for g in factors)
    bound = sum(prod(max(g.degree, 1) ** b for g, b in zip(factors, beta))
                for beta in basis.tuples) ** r
    # every table is cast: a factor's powers turn to object arrays at its
    # own float bound, not at this one
    dtype = np.int64 if bound < INT64_LIMIT else object
    tables = [[along_axes(g.walk_matrix(ell).astype(dtype), t, n)
               for ell in range(r + 1)] for t, g in enumerate(factors)]
    return neps_walks(tables, basis, r).reshape(total, total)


def check_neps_oracle(instances=50, seed=0) -> list[CheckResult]:
    """Walk formula from factor tables vs matrix power on random NEPS,
    compared on every vertex pair."""
    import numpy as np

    name = f"neps-oracle ({instances} random instances)"
    rng = random.Random(seed)
    for _ in range(instances):
        factors, basis, r = random_neps_instance(rng)
        formula = formula_walk_matrix(factors, basis, r)
        power = neps_construct(factors, basis).walk_matrix(r)
        bad = np.argwhere(formula != power)
        if len(bad):
            i, j = bad[0]
            return [CheckResult(name, False, (
                f"sizes={[g.n for g in factors]} basis={basis} r={r} "
                f"pair=({i},{j}): formula={formula[i, j]} power={power[i, j]}"
            ))]
    return [CheckResult(name, True)]


def check_example_closed_forms() -> list[CheckResult]:
    """The two K3 x K4 displays for r <= 8: Kronecker form, binomial sum."""
    name = "example closed forms (r<=8)"
    g1 = neps_construct([complete_graph(3), complete_graph(4)], NepsBasis([(1, 1)]))
    g2 = neps_construct(
        [complete_graph(3), complete_graph(4)], NepsBasis([(1, 0), (0, 1)])
    )
    for r in range(1, 9):
        # the walk count is half this numerator, so twice it must equal it
        numerator = 6 ** (r - 1) + (-1) ** r * (2 ** (r - 1) + 3 ** (r - 1)) + 1
        if numerator != 2 * g1.walk_count(r, 0, 0):
            return [CheckResult(name, False, f"Kronecker form fails at r={r}")]
        total = sum(
            comb(r, ell) * complete_walks(3, ell, True)
            * complete_walks(4, r - ell, True)
            for ell in range(r + 1)
        )
        if total != g2.walk_count(r, 0, 0):
            return [CheckResult(name, False, f"binomial form fails at r={r}")]
    return [CheckResult(name, True)]


def run_all(roster=None, max_r=3, neps_instances=50,
            seed=0) -> list[CheckResult]:
    """The five per-triple checks on one system per roster triple
    (DEFAULT_ROSTER when roster is None), each through `_run_capped`, then
    the NEPS oracle and the examples. Raises BadParameters, before any
    system is built, unless max_r and neps_instances are integers >= 0
    (`check_length`); the errors of `DiagonalSystem` for a triple it
    refuses; and CountTooLarge when q^max_r, q the roster's largest field,
    could pass MAX_COUNT_BITS, as M_s <= q^s is the largest count built."""
    max_r = check_length("max_r", max_r)
    neps_instances = check_length("neps_instances", neps_instances)
    if roster is None:
        roster = DEFAULT_ROSTER
    systems = [DiagonalSystem(p, a, b) for p, a, b in roster]
    check_length("max_r", max_r, max((s.q for s in systems), default=1))
    checks = (check_triple_agreement, check_convolution_agreement,
              check_walk_bridge, check_isomorphisms, check_partition)
    results = [_run_capped(check, system, max_r)
               for check in checks for system in systems]
    results += check_neps_oracle(neps_instances, seed)
    results += check_example_closed_forms()
    return results
