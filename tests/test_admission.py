"""Every length and field parameter is admitted as an integer: a float is
refused with BadParameters, a numpy integer counts as the equal Python
int, and a length whose count could pass MAX_COUNT_BITS is refused with
CountTooLarge before the first power."""

import math
import time
from typing import Callable, NamedTuple

import numpy as np
import pytest

from diagwalks import (
    DenseGraph,
    DiagonalSystem,
    NepsBasis,
    brute_force_distribution,
    build_field,
    complete_graph,
    complete_walks,
    convolution_distribution,
    hamming_walks,
    neps_complete_walks,
    neps_walks,
    walk_solution_count,
)
from diagwalks import diagonal, kth_power_residues, verify
from diagwalks.diagonal import diagonal_exponent
from diagwalks.errors import (MAX_COUNT_BITS, ArityMismatch, BadParameters,
                              CountTooLarge, EnumerationTooLarge,
                              KDoesNotDivide, LengthTableTooShort,
                              NepsWalkTooLarge, ProductTooLarge,
                              VertexOutOfRange)
from diagwalks.field import check_k_divides
from diagwalks.graphs import product_order


class Case(NamedTuple):
    call: Callable  # the evaluator as a function of its length n
    base: int = 1  # its count is at most base^n; 1: no bit cap
    # the step after the length check, patched to raise past the cap and,
    # when `stub` is given, to return it at the cap
    step: tuple = None
    stub: object = None


class OneWalkGraph:
    def walk_count(self, r, i, j):
        return 1


def _cases():
    f4, f9 = build_field(2, 2), build_field(3, 2)
    s716 = DiagonalSystem(7, 1, 6)
    k3 = [complete_walks(3, t, True) for t in range(9)]
    k3_graph = complete_graph(3)
    return {
        "count_nonzero": Case(lambda n: s716.count_nonzero(1, n), 117648,
                              (diagonal, "hamming_walks")),
        "count_all": Case(lambda n: s716.count_all(1, n), 117649,
                          (DiagonalSystem, "count_nonzero")),
        "walk_solution_count": Case(
            lambda n: walk_solution_count(f9, 2, 0, 1, n), 8,
            (diagonal, "gp_graph"), OneWalkGraph()),
        "hamming_walks": Case(lambda n: hamming_walks(2, 3, n, (True, False)),
                              4),
        "complete_walks": Case(lambda n: complete_walks(3, n, False), 2),
        "neps_complete_walks": Case(
            lambda n: neps_complete_walks([3, 4], NepsBasis([(1, 1)]), n,
                                          (True, False)), 6),
        "neps_walks": Case(
            lambda n: neps_walks([k3, k3], NepsBasis.standard(2), n)),
        "walk_matrix": Case(lambda n: complete_graph(4).walk_matrix(n)),
        "walk_count": Case(lambda n: k3_graph.walk_count(n, 0, 1)),
        "brute_force_distribution": Case(
            lambda n: brute_force_distribution(f4, 1, n)),
        "convolution_distribution": Case(
            lambda n: convolution_distribution(f4, 1, n)),
        "run_all max_r": Case(
            lambda n: verify.run_all([(3, 1, 2)], max_r=n, neps_instances=0)),
        "run_all neps_instances": Case(
            lambda n: verify.run_all([], max_r=0, neps_instances=n)),
    }


CASES = _cases()


def _same(got, want):
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and np.array_equal(got, want)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("name", list(CASES))
def test_every_evaluator_admits_its_length(monkeypatch, name):
    case = CASES[name]
    # 1.0 too: walk_count once answered length 1 before its check
    for bad in (1.0, 2.0, 2.5, -1):
        with pytest.raises(BadParameters, match=f"={bad!r} "):
            case.call(bad)
    assert _same(case.call(np.int64(8)), case.call(8))
    if case.base == 1:
        return
    cap = math.floor(MAX_COUNT_BITS / math.log2(case.base))
    assert cap * math.log2(case.base) <= MAX_COUNT_BITS
    with monkeypatch.context() as patch:
        if case.step:
            def refuse(*args):
                raise RuntimeError("a power was built past the cap")

            patch.setattr(*case.step, refuse)
        started = time.perf_counter()
        with pytest.raises(CountTooLarge, match=f"<= {cap} here"):
            case.call(cap + 1)
        assert time.perf_counter() - started < 1
    with monkeypatch.context() as patch:
        if name == "count_all":
            # its s walk sums pass MAX_WORK, refused before the first N_i
            patch.setattr(*case.step, refuse)
            with pytest.raises(NepsWalkTooLarge, match="MAX_WORK"):
                case.call(cap)
            return
        if case.stub is not None:
            patch.setattr(*case.step, lambda *args: case.stub)
        count = case.call(cap)
    assert type(count) is int and count.bit_length() <= MAX_COUNT_BITS


def test_motivating_lengths_are_exact_or_refused():
    system = DiagonalSystem(7, 1, 6)
    count = system.count_nonzero(1, np.int64(8))
    assert type(count) is int
    assert count == 4435268083646461670183795565621739520
    started = time.perf_counter()
    for r in (10**7, 10**9):
        with pytest.raises(CountTooLarge):
            DiagonalSystem(3, 1, 2).count_nonzero(0, r)
    assert time.perf_counter() - started < 0.1
    huge = 10**5000  # its decimal would itself raise ValueError
    with pytest.raises(CountTooLarge, match="<16610-bit integer>"):
        hamming_walks(2, 3, huge, (True, False))
    with pytest.raises(BadParameters, match="<16610-bit integer> must be"):
        complete_walks(3, -huge, True)


HUGE = 10**5000  # its decimal would itself raise ValueError
F9 = build_field(3, 2)


@pytest.mark.parametrize("call, error", [
    (lambda: DiagonalSystem(3, 1, 2).count_nonzero(HUGE, 1), BadParameters),
    (lambda: F9.pow_idx(HUGE, 2), BadParameters),
    (lambda: complete_graph(3).walk_count(2, HUGE, 0), VertexOutOfRange),
    (lambda: kth_power_residues(F9, HUGE), KDoesNotDivide),
    (lambda: neps_walks([[1] * 3] * 2, NepsBasis.standard(2), HUGE),
     LengthTableTooShort),
    (lambda: product_order([HUGE]), ProductTooLarge),
    (lambda: brute_force_distribution(F9, 2, HUGE), EnumerationTooLarge),
], ids=["count-nonzero-alpha", "pow-idx", "walk-count-vertex", "residues-k",
        "neps-walks-length", "product-order", "brute-force-length"])
def test_huge_ints_are_printed_in_typed_refusals(call, error):
    # each raised a bare ValueError (over 4,300 digits) from its message
    with pytest.raises(error, match="<16610-bit integer>"):
        call()


def test_hamming_walks_admits_before_its_memo():
    # 2.0 == 2 and np.int64(2) == 2, each hashing alike, so a memo keyed
    # on the raw arguments would answer them from the warm entry
    zeros = (True,) * 4 + (False,) * 2
    warm = hamming_walks(6, 7, 2, zeros)
    with pytest.raises(BadParameters, match="r=2.0 is not an integer"):
        hamming_walks(6, 7, 2.0, zeros)
    with pytest.raises(ArityMismatch):
        hamming_walks(6, 7, 2, zeros[1:])
    cap = math.floor(MAX_COUNT_BITS / math.log2(6 * (7 - 1)))
    with pytest.raises(CountTooLarge):
        hamming_walks(6, 7, cap + 1, zeros)
    assert _same(hamming_walks(6, 7, np.int64(2), zeros), warm)


@pytest.mark.parametrize("p, a, b", [(3.0, 1, 2), (3, 1.0, 2), (3, 1, 2.0)])
def test_field_parameters_must_be_integers(no_number_theory, p, a, b):
    for build in (diagonal_exponent, DiagonalSystem):
        with pytest.raises(BadParameters, match=r"=\d\.0 is not an integer"):
            build(p, a, b)


def test_numpy_field_parameters_count_as_ints():
    system = DiagonalSystem(np.int64(7), np.int64(1), np.int64(6))
    assert all(type(v) is int for v in (system.p, system.a, system.b,
                                         system.q, system.Q, system.k))
    assert system.count_nonzero(1, 8) == DiagonalSystem(7, 1, 6).count_nonzero(
        1, 8)
    assert build_field(np.int64(3), np.int64(2)).q == 9
    # 8 % 2.0 == 0.0 once let a float k through
    with pytest.raises(BadParameters, match="k=2.0 is not an integer"):
        check_k_divides(9, 2.0)
    k = check_k_divides(9, np.int64(2))
    assert type(k) is int and k == 2


def test_closed_forms_admit_their_sizes():
    zeros = (True,) * 5 + (False,)
    assert _same(hamming_walks(np.int64(6), np.int64(7), 22, zeros),
                 hamming_walks(6, 7, 22, zeros))
    assert _same(complete_walks(np.int64(3), 5, False),
                 complete_walks(3, 5, False))
    assert _same(neps_complete_walks([np.int64(3), 4], NepsBasis([(1, 1)]), 5,
                                     (True, False)),
                 neps_complete_walks([3, 4], NepsBasis([(1, 1)]), 5,
                                     (True, False)))
    assert complete_graph(np.int64(3)).n == 3
    assert _same(complete_graph(3).walk_count(2, np.int64(0), np.int64(1)),
                 complete_graph(3).walk_count(2, 0, 1))
    for call in (lambda: hamming_walks(2.0, 3, 2, (True, False)),
                 lambda: hamming_walks(2, 3.0, 2, (True, False)),
                 lambda: complete_walks(2.5, 1, True),
                 lambda: neps_complete_walks([2.5], NepsBasis([(1,)]), 1,
                                             (True,)),
                 lambda: complete_graph(2.5),
                 lambda: complete_graph(3).walk_count(1, 2.5, 1),
                 lambda: complete_graph(3).walk_count(2, 0, 2.0),
                 lambda: NepsBasis([(2.5, 1)])):
        with pytest.raises(BadParameters, match="=[23].[05] is not an integer"):
            call()
    # a vertex or basis entry that is no integer at all is refused as such
    for call in (lambda: complete_graph(3).walk_count(2, "0", 1),
                 lambda: NepsBasis([("1", 1)])):
        with pytest.raises(BadParameters, match="='[01]' is not an integer"):
            call()
    # a size out of range is BadParameters, still a ValueError
    for call in (lambda: hamming_walks(0, 3, 2, ()),
                 lambda: hamming_walks(2, 1, 2, (True, False)),
                 lambda: complete_walks(0, 1, True),
                 lambda: neps_complete_walks([0], NepsBasis([(1,)]), 1,
                                             (True,)),
                 lambda: complete_graph(0)):
        with pytest.raises(BadParameters):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: hamming_walks(2, 3, 2, None), "pattern None is not a sequence"),
    (lambda: neps_complete_walks([3], NepsBasis([(1,)]), 2, iter([True])),
     "must be sequences"),
    (lambda: neps_complete_walks(3, NepsBasis([(1,)]), 2, (True,)),
     "must be sequences"),
    (lambda: neps_walks([5], NepsBasis([(1,)]), 0), "are not sequences"),
    (lambda: neps_walks(None, NepsBasis([(1,)]), 0), "are not sequences"),
    (lambda: DenseGraph(np.zeros((2, 3), dtype=np.int8)), "must be square"),
    (lambda: DenseGraph(np.array([[0, 2], [2, 0]])), "must be 0/1"),
    (lambda: DenseGraph(np.identity(3, dtype=np.int8)), "self-loops"),
], ids=["hamming-none", "neps-complete-iterator", "neps-complete-int",
        "neps-walks-int-table", "neps-walks-none", "dense-shape",
        "dense-entries", "dense-loop"])
def test_malformed_sequences_are_typed_refusals(call, message):
    # each raised a bare TypeError, or for DenseGraph a bare ValueError;
    # BadParameters is still a ValueError
    with pytest.raises(BadParameters, match=message):
        call()
