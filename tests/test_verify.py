import pytest

from diagwalks import verify
from diagwalks.diagonal import DiagonalSystem
from diagwalks.errors import BadParameters, CountTooLarge


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
    def refuse(system, max_r):
        raise RuntimeError("a check ran")

    for name in ("check_triple_agreement", "check_convolution_agreement",
                 "check_walk_bridge", "check_isomorphisms", "check_partition"):
        monkeypatch.setattr(verify, name, refuse)
    with pytest.raises(CountTooLarge, match="max_r <= 225798 here"):
        verify.run_all([(3, 1, 2), (5, 1, 2)], max_r=max_r, neps_instances=0)


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
            assert check(system, 3).ok
            assert calls == [(name, 3)]


def test_checks_report_the_first_counterexample(monkeypatch):
    system = DiagonalSystem(3, 1, 2)
    real = system.count_nonzero
    monkeypatch.setattr(system, "count_nonzero",
                        lambda alpha, r: real(alpha, r) + ((alpha, r) == (4, 2)))
    for check in (verify.check_triple_agreement,
                  verify.check_convolution_agreement, verify.check_walk_bridge):
        result = check(system, 3)
        assert not result.ok
        assert result.detail.startswith("p=3 a=1 b=2 alpha=4 r=2:"), result
    result = verify.check_partition(system, 3)
    assert not result.ok
    assert result.detail.startswith("p=3 a=1 b=2 n=2:"), result
    assert verify.check_isomorphisms(system).ok
