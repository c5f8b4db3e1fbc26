import time
import tracemalloc
from collections import Counter

import pytest

from diagwalks import verify
from diagwalks.diagonal import DiagonalSystem
from diagwalks.errors import (BadParameters, CountTooLarge, EnumerationTooLarge,
                              NepsWalkTooLarge)
from diagwalks.gp import HammingView


@pytest.fixture
def built(monkeypatch):
    """The (p, a, b) of every DiagonalSystem built while the test runs."""
    triples = []
    init = DiagonalSystem.__init__

    def counting_init(self, p, a, b, *args, **kwargs):
        triples.append((p, a, b))
        init(self, p, a, b, *args, **kwargs)

    monkeypatch.setattr(DiagonalSystem, "__init__", counting_init)
    return triples


def test_run_all_builds_one_system_per_triple(built):
    results = verify.run_all([(3, 1, 2), (2, 2, 3)], max_r=2, neps_instances=2)
    assert built == [(3, 1, 2), (2, 2, 3)]
    assert len(results) == 5 * 2 + 2
    assert all(result.ok for result in results), results


@pytest.mark.parametrize("max_r, neps_instances", [(-1, 50), (3, -5)])
def test_run_all_refuses_negative_sizes_before_building(built, max_r,
                                                        neps_instances):
    with pytest.raises(BadParameters, match="must be >= 0"):
        verify.run_all([(3, 1, 2)], max_r=max_r, neps_instances=neps_instances)
    assert built == []


@pytest.mark.parametrize("max_r", [225799, 10**400], ids=["cap+1", "10^400"])
def test_run_all_admits_max_r_by_the_largest_field(monkeypatch, max_r):
    # M_s <= 25^s on (5,1,2): s = 225,798 is the last s of at most
    # MAX_COUNT_BITS bits. 10^400 overflowed in the partition check
    def refuse(system, rows):
        raise RuntimeError("a check ran")

    for name in ("check_triple_agreement", "check_convolution_agreement",
                 "check_walk_bridge", "check_isomorphisms", "check_partition"):
        monkeypatch.setattr(verify, name, refuse)
    with pytest.raises(CountTooLarge, match="max_r <= 225798 here"):
        verify.run_all([(3, 1, 2), (5, 1, 2)], max_r=max_r, neps_instances=0)


def test_run_all_refuses_the_longest_m_s_first():
    # count_all refuses M_20000 on H(2,3) at once; r running up to it
    # would make some 10^8 count_nonzero calls first
    started = time.perf_counter()
    with pytest.raises(NepsWalkTooLarge, match="M_s for s=20000 "):
        verify.run_all([(3, 1, 2)], max_r=20000, neps_instances=0)
    assert time.perf_counter() - started < 1


def test_triple_agreement_calls_each_oracle_once(monkeypatch):
    # each oracle has an agreement of its own, so a cap can skip one alone
    calls = []
    for name in ("brute_force_distribution", "convolution_distribution"):
        def counting(field, k, r, restrict_nonzero=True,
                     name=name, oracle=getattr(verify, name)):
            calls.append((name, r))
            return oracle(field, k, r, restrict_nonzero)
        monkeypatch.setattr(verify, name, counting)
    for system in (DiagonalSystem(3, 1, 2), DiagonalSystem(2, 2, 3)):
        for check, name in (
                (verify.check_triple_agreement, "brute_force_distribution"),
                (verify.check_convolution_agreement,
                 "convolution_distribution")):
            calls.clear()
            assert check(system, verify.FormulaRows(system, 3)).ok
            assert calls == [(name, 3)]


def _misclassify(patch, moved):
    """HammingView.pattern_idx, but the pattern moved[alpha] at each alpha
    moved names."""
    solve = HammingView.pattern_idx
    patch.setattr(HammingView, "pattern_idx", lambda self, alpha:
                  moved[alpha] if alpha in moved else solve(self, alpha))


AGREEMENTS = (verify.check_triple_agreement,
              verify.check_convolution_agreement, verify.check_walk_bridge)


def test_checks_report_the_first_counterexample(monkeypatch):
    # on GF(9), k = 2, class d = 0 is {0}, 1 is {1, 2, 3, 6} and 2 is
    # {4, 5, 7, 8}: a wrong N_2 at 4, the first alpha of class 2, is read
    # at the whole class, and 4 is its least element
    with monkeypatch.context() as patch:
        system = DiagonalSystem(3, 1, 2)
        real = system.count_nonzero
        patch.setattr(system, "count_nonzero", lambda alpha, r:
                      real(alpha, r) + ((alpha, r) == (4, 2)))
        rows = verify.FormulaRows(system, 3)
        for check in AGREEMENTS:
            result = check(system, rows)
            assert not result.ok
            assert result.detail.startswith("p=3 a=1 b=2 alpha=4 r=2:"), result
        result = verify.check_partition(system, rows)
        assert not result.ok
        assert result.detail.startswith("p=3 a=1 b=2 n=2:"), result
        assert verify.check_isomorphisms(system).ok
    # 3 read as class 0 is found at r = 0, and by the class sizes
    with monkeypatch.context() as patch:
        _misclassify(patch, {3: (True, True)})
        system = DiagonalSystem(3, 1, 2)
        rows = verify.FormulaRows(system, 3)
        for check in AGREEMENTS:
            result = check(system, rows)
            assert (result.ok, result.detail) == (
                False, "p=3 a=1 b=2 alpha=3 r=0: formula=1 oracle=0"), result
        result = verify.check_partition(system, rows)
        assert (result.ok, result.detail) == (
            False, "p=3 a=1 b=2 d=0: size=2 (want 1)")


def test_run_all_evaluates_each_class_once_per_length(monkeypatch):
    # N_r and M_r are read at the first alpha of each of the b+1 classes:
    # (b+1)(max_r+1) count_all calls per triple, 9 + 12, where a call at
    # every alpha and r made 27 + 192
    calls = []
    count_all = DiagonalSystem.count_all

    def counting(self, alpha, s):
        calls.append(self.q)
        return count_all(self, alpha, s)

    monkeypatch.setattr(DiagonalSystem, "count_all", counting)
    results = verify.run_all([(3, 1, 2), (2, 2, 3)], max_r=2, neps_instances=0)
    assert all(result.ok for result in results), results
    assert Counter(calls) == {9: 3 * 3, 64: 4 * 3}


def test_run_all_solves_each_element_once_per_triple(monkeypatch):
    # one pass over alpha per triple, and one more solve of each class's
    # first alpha in count_nonzero: 9 + 3 and 64 + 4 solves, where four
    # passes made 292 and an r-outer pass 219
    calls = []
    solve = HammingView.pattern_idx

    def counting(self, alpha):
        calls.append(alpha)
        return solve(self, alpha)

    monkeypatch.setattr(HammingView, "pattern_idx", counting)
    results = verify.run_all([(3, 1, 2), (2, 2, 3)], max_r=2, neps_instances=0)
    assert all(result.ok for result in results), results
    assert len(calls) == 9 + 3 + 64 + 4


def test_run_all_keeps_no_rows_when_every_oracle_is_refused(monkeypatch):
    # the formula is a byte per alpha and b+1 counts per length: on GF(625)
    # at max_r = 6 N_r rows kept at every alpha held 2,374 counts and
    # peaked at 0.21 MB traced; the class rows peak near 0.04 MB, the
    # system's tables included
    def refuse(*args, **kwargs):
        raise EnumerationTooLarge("refused")

    for name in ("brute_force_distribution", "convolution_distribution",
                 "gp_graph"):
        monkeypatch.setattr(verify, name, refuse)
    verify.run_all([(3, 1, 2)], max_r=1, neps_instances=0)  # warm caches
    tracemalloc.start()
    try:
        results = verify.run_all([(5, 1, 4)], max_r=6, neps_instances=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [result.skipped for result in results[:5]] == [True] * 3 + [False] * 2
    assert all(result.ok for result in results), results
    assert peak < 100_000, peak


def test_agreements_compare_whole_rows(monkeypatch):
    # on GF(9), k = 2: R_2 = {1, 2, 3, 6} is class 1, first at 1, and class
    # 2, first at 4, is {4, 5, 7, 8}, so N_1 is 0 at 4 and 5, and N_2(0) =
    # 16; a fault the formula's row holds (4, 5) or lacks (0, 3) is found
    # alike, whether a class's first alpha counts wrong or an alpha is
    # read in the wrong class
    cases = [  # (wrong counts, misclassified, agreement, partition)
        ({}, {5: (False, True)}, "alpha=5 r=1: formula=2 oracle=0",
         "d=1: size=5 (want 4)"),
        ({(4, 1): 2}, {}, "alpha=4 r=1: formula=2 oracle=0", "n=1:"),
        ({(0, 2): 0}, {}, "alpha=0 r=2: formula=0 oracle=16", "n=2:"),
        ({}, {3: (False, False)}, "alpha=3 r=1: formula=0 oracle=2",
         "d=1: size=3 (want 4)"),
        ({(4, 1): 2, (0, 2): 0}, {}, "alpha=4 r=1: formula=2 oracle=0",
         "n=1:"),
    ]
    for faults, moved, detail, partition in cases:
        with monkeypatch.context() as patch:
            _misclassify(patch, moved)
            system = DiagonalSystem(3, 1, 2)
            real = system.count_nonzero
            patch.setattr(system, "count_nonzero", lambda alpha, r:
                          faults.get((alpha, r), real(alpha, r)))
            rows = verify.FormulaRows(system, 2)
            for check in AGREEMENTS:
                result = check(system, rows)
                assert (result.ok, result.detail) == (
                    False, f"p=3 a=1 b=2 {detail}"), (check, faults, moved)
            result = verify.check_partition(system, rows)
            assert not result.ok
            assert result.detail.startswith(f"p=3 a=1 b=2 {partition}"), result


def test_run_all_fails_a_flag_word_mask_mutant(monkeypatch):
    # a view whose _block_tops lacks the top bit of block 0 reads
    # coordinate 0 as zero at every alpha: on GF(9) class 0 gets the 3
    # elements with coordinate 1 zero and class 2 none, an empty class the
    # partition fails; the isomorphism check reads the solve words alone
    init = HammingView.__init__

    def mutant(self, *args):
        init(self, *args)
        self._block_tops &= ~self.block_masks[0]

    monkeypatch.setattr(HammingView, "__init__", mutant)
    results = verify.run_all([(3, 1, 2), (2, 2, 3)], max_r=2, neps_instances=0)
    failed = [result.name.split()[0] for result in results if not result.ok]
    assert failed == [name for name in ("triple-agreement",
                                        "convolution-agreement",
                                        "walk-bridge", "partition")
                      for _ in range(2)], results
    assert results[8].detail == "p=3 a=1 b=2 d=0: size=3 (want 1)", results


def test_run_all_defaults_to_the_default_roster(built):
    results = verify.run_all(max_r=1, neps_instances=0)
    assert built == verify.DEFAULT_ROSTER
    assert len(results) == 5 * len(verify.DEFAULT_ROSTER) + 2
    assert all(result.ok for result in results), results


def _construct_k12_for(basis):
    """neps_construct, but K_12 for the given basis."""
    real = verify.neps_construct
    return lambda factors, b: (verify.complete_graph(12) if b == basis
                               else real(factors, b))


@pytest.mark.parametrize("name, patch, detail", [
    # K_12 has 11 closed 2-walks, K3 x K4 under 11 has 6, under 10;01 5
    ("neps_construct", _construct_k12_for(verify.NepsBasis([(1, 1)])),
     "Kronecker form fails at r=2"),
    ("neps_construct", _construct_k12_for(verify.NepsBasis([(1, 0), (0, 1)])),
     "binomial form fails at r=2"),
    # one walk too many at length 3 first shows in the sum at r = 3
    ("complete_walks", lambda m, r, same, real=verify.complete_walks:
        real(m, r, same) + (r == 3), "binomial form fails at r=3"),
], ids=["kronecker", "binomial-graph", "binomial-sum"])
def test_example_closed_forms_name_the_failing_display(monkeypatch, name,
                                                       patch, detail):
    monkeypatch.setattr(verify, name, patch)
    [result] = verify.check_example_closed_forms()
    assert (result.ok, result.detail) == (False, detail)
