"""Self-verification suites: every closed formula against an independent oracle.

`run_all` builds one `DiagonalSystem` per roster triple, evaluates its
formula once by distance class (`FormulaRows`: N_r(alpha) depends only
on d, the number of nonzero Hamming coordinates of alpha, so one pass
over alpha records each alpha's class, and N_r and M_r are evaluated at
the first alpha of each class, (b+1)(max_r+1) calls of each) and hands
it to the five per-triple checks, each returning one CheckResult:

- triple and convolution agreement: the formula's N_r rows against the
  literal enumeration, whose step t extends the nnz bins of its tuples'
  packed sums by the d distinct packed words in at most nnz*d <= base^t
  additions, and, in a check of its own, the additive convolution; one
  call to each oracle gives every r <= max_r, and `_agreement` compares
  whole rows, the formula read through alpha's class, an alpha missing
  from an oracle row reading 0;
- walk bridge: the same rows against k^r times matrix-power walks on the
  triple's generalized Paley graph, built once for the check and read at
  every alpha;
- isomorphism: the system's own `HammingView` against R_k;
- partition: the class sizes against C(b,d)(Q-1)^d, and the sums of N_r
  and M_s over alpha, each class's count weighed by its size.

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
from operator import mul
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


class FormulaRows:
    """The formula of one system at every alpha and r = 0..max_r, by
    distance class: `classes[alpha]` is d, the number of nonzero Hamming
    coordinates of alpha, `sizes[d]` the number of alpha in class d, and
    `n[r][d]` and `m[r][d]` are N_r and M_r at the first alpha of class d,
    b+1 counts per length (0 for a class the map leaves empty). One pass
    over alpha solves each alpha once; `count_nonzero` solves each class's
    first alpha once more, and its `count_all` calls share that solve. r
    runs down from max_r, so `count_all` admits its largest s first."""

    def __init__(self, system: DiagonalSystem, max_r: int):
        self.max_r = max_r
        b, pattern_idx = system.b, system.view.pattern_idx
        self.classes, self.sizes = bytearray(system.q), [0] * (b + 1)
        self.n = [[0] * (b + 1) for _ in range(max_r + 1)]
        self.m = [[0] * (b + 1) for _ in range(max_r + 1)]
        for alpha in range(system.q):
            d = self.classes[alpha] = pattern_idx(alpha).count(False)
            if not self.sizes[d]:
                for r in reversed(range(max_r + 1)):
                    self.m[r][d] = system.count_all(alpha, r)
                    self.n[r][d] = system.count_nonzero(alpha, r)
            self.sizes[d] += 1


def _agreement(system: DiagonalSystem, rows: FormulaRows, name: str,
               oracle_rows) -> CheckResult:
    """The one compare of the oracle checks: for each r, the oracle's row
    r, a dict of its nonzero counts, against the formula's N_r at every
    alpha, read as n[r][classes[alpha]]; an alpha missing from the
    oracle's row reads 0. The failure's detail is the least differing
    alpha of the least failing r, with both counts."""
    classes = rows.classes
    for r, (counts, oracle) in enumerate(zip(rows.n, oracle_rows)):
        get = oracle.get
        alpha = next((alpha for alpha, d in enumerate(classes)
                      if counts[d] != get(alpha, 0)), None)
        if alpha is not None:
            return CheckResult(name, False, (
                f"{_triple(system)} alpha={alpha} r={r}: "
                f"formula={counts[classes[alpha]]} oracle={get(alpha, 0)}"))
    return CheckResult(name, True)


def check_triple_agreement(system: DiagonalSystem,
                           rows: FormulaRows) -> CheckResult:
    """Formula vs literal enumeration, every alpha."""
    field, k, q, max_r = system.field, system.k, system.q, rows.max_r
    brute = [{alpha: count for alpha, count in enumerate(row.tolist())
              if count}
             for row in brute_force_distribution(field, k, max_r, True)]
    return _agreement(system, rows, f"triple-agreement {_triple(system)} "
                      f"(q={q}, k={k}, r<={max_r})", brute)


def check_convolution_agreement(system: DiagonalSystem,
                                rows: FormulaRows) -> CheckResult:
    """Formula vs additive convolution, every alpha; the rows map only
    the elements they reach, and any other alpha weighs 0."""
    field, k, q, max_r = system.field, system.k, system.q, rows.max_r
    conv = convolution_distribution(field, k, max_r, True)
    return _agreement(system, rows, f"convolution-agreement "
                      f"{_triple(system)} (q={q}, k={k}, r<={max_r})", conv)


def check_walk_bridge(system: DiagonalSystem,
                      rows: FormulaRows) -> CheckResult:
    """k^r * (walks from 0 to alpha on the GP-graph, built once here) must
    equal N_r(alpha)."""
    graph, k, max_r = gp_graph(system.field, system.k), system.k, rows.max_r
    walks = [{} for _ in range(max_r + 1)]
    for r, row in enumerate(walks):
        for alpha in range(system.q):
            count = graph.walk_count(r, 0, alpha)
            if count:
                row[alpha] = k**r * count
    return _agreement(system, rows, f"walk-bridge {_triple(system)} "
                      f"(r<={max_r})", walks)


def check_isomorphisms(system: DiagonalSystem,
                       rows: FormulaRows | None = None) -> CheckResult:
    """The system's coordinate map is a GP/Hamming isomorphism; rows is
    unused, so that all five per-triple checks share one signature."""
    return CheckResult(
        f"isomorphism Gamma({system.k},{system.q}) ~ "
        f"H({system.b},{system.Q})",
        verify_isomorphism(system.view),
    )


def check_partition(system: DiagonalSystem, rows: FormulaRows) -> CheckResult:
    """Class d has C(b,d)(Q-1)^d members, which checks the map the rows
    are read through; then the sums over alpha, sum_d sizes[d] n[r][d] of
    N_r and the same of M_s, are (q-1)^r and q^s."""
    q, b, Q = system.q, system.b, system.Q
    name = f"partition {_triple(system)} (n<={rows.max_r})"
    for d, size in enumerate(rows.sizes):
        want = comb(b, d) * (Q - 1) ** d
        if size != want:
            return CheckResult(name, False, (
                f"{_triple(system)} d={d}: size={size} (want {want})"))
    for n, (row_n, row_m) in enumerate(zip(rows.n, rows.m)):
        total_n = sum(map(mul, rows.sizes, row_n))
        total_m = sum(map(mul, rows.sizes, row_m))
        if total_n != (q - 1) ** n or total_m != q**n:
            return CheckResult(name, False, (
                f"{_triple(system)} n={n}: sum N={total_n} "
                f"(want {(q - 1) ** n}), sum M={total_m} (want {q**n})"
            ))
    return CheckResult(name, True)


def _run_capped(check, system: DiagonalSystem,
                rows: FormulaRows) -> CheckResult:
    """check(system, rows), or, when a cap refuses it, a skipped result
    named after the check and the triple, with the error's class and
    message as its detail."""
    try:
        return check(system, rows)
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
    (DEFAULT_ROSTER when roster is None), each through `_run_capped` on the
    system's `FormulaRows`, then the NEPS oracle and the examples. The
    formula is evaluated once per system, after max_r is admitted, and one
    system's rows are held at a time. Raises BadParameters, before any
    system is built, unless max_r and neps_instances are integers >= 0
    (`check_length`); the errors of `DiagonalSystem` for a triple it
    refuses; CountTooLarge when q^max_r, q the roster's largest field,
    could pass MAX_COUNT_BITS, as M_s <= q^s is the largest count built;
    and NepsWalkTooLarge from a system's first formula call, `count_all`
    at s = max_r, when `neps.admit_hamming_sums` prices its walk sums past
    neps.MAX_NEPS_OPS.

    The formula takes (b+1)(max_r+1) calls of each evaluator, whatever q
    is; the `count_all` calls make (b+1)max_r(max_r+1)/2 `count_nonzero`
    calls among them."""
    max_r = check_length("max_r", max_r)
    neps_instances = check_length("neps_instances", neps_instances)
    if roster is None:
        roster = DEFAULT_ROSTER
    systems = [DiagonalSystem(p, a, b) for p, a, b in roster]
    check_length("max_r", max_r, max((s.q for s in systems), default=1))
    checks = (check_triple_agreement, check_convolution_agreement,
              check_walk_bridge, check_isomorphisms, check_partition)
    # one system's rows at a time; the lines are listed check by check
    per_system = []
    for system in systems:
        rows = FormulaRows(system, max_r)
        per_system.append([_run_capped(check, system, rows)
                           for check in checks])
    results = [result for by_check in zip(*per_system) for result in by_check]
    results += check_neps_oracle(neps_instances, seed)
    results += check_example_closed_forms()
    return results
