import pytest

from diagwalks import verify
from diagwalks.diagonal import DiagonalSystem
from diagwalks.errors import BadParameters


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
    assert len(results) == 4 * 2 + 2
    assert all(result.ok for result in results), results


@pytest.mark.parametrize("max_r, neps_instances", [(-1, 50), (3, -5)])
def test_run_all_refuses_negative_sizes_before_building(built, max_r,
                                                        neps_instances):
    with pytest.raises(BadParameters, match="must be >= 0"):
        verify.run_all([(3, 1, 2)], max_r=max_r, neps_instances=neps_instances)
    assert built == []


def test_triple_agreement_calls_each_oracle_once(monkeypatch):
    calls = []
    for name in ("brute_force_distribution", "convolution_distribution"):
        def counting(field, k, r, restrict_nonzero=True,
                     name=name, oracle=getattr(verify, name)):
            calls.append((name, r))
            return oracle(field, k, r, restrict_nonzero)
        monkeypatch.setattr(verify, name, counting)
    for system in (DiagonalSystem(3, 1, 2), DiagonalSystem(2, 2, 3)):
        calls.clear()
        assert verify.check_triple_agreement(system, 3).ok
        assert sorted(calls) == [("brute_force_distribution", 3),
                                 ("convolution_distribution", 3)]


def test_checks_report_the_first_counterexample(monkeypatch):
    system = DiagonalSystem(3, 1, 2)
    real = system.count_nonzero
    monkeypatch.setattr(system, "count_nonzero",
                        lambda alpha, r: real(alpha, r) + ((alpha, r) == (4, 2)))
    for check in (verify.check_triple_agreement, verify.check_walk_bridge):
        result = check(system, 3)
        assert not result.ok
        assert result.detail.startswith("p=3 a=1 b=2 alpha=4 r=2:"), result
    result = verify.check_partition(system, 3)
    assert not result.ok
    assert result.detail.startswith("p=3 a=1 b=2 n=2:"), result
    assert verify.check_isomorphisms(system).ok
