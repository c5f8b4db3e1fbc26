"""The one spectral kernel and the one MAX_NEPS_OPS gate, through the three
spectral entry points, against references that share no code with them."""

import math
import time

import pytest
from conftest import krawtchouk_double_sum
from hypothesis import given, settings
from hypothesis import strategies as st

from diagwalks import (
    NepsBasis,
    complete_graph,
    complete_walks,
    hamming_walks,
    neps_complete_walks,
    neps_construct,
)
from diagwalks import neps
from diagwalks.errors import DiagwalksError, NepsWalkTooLarge
from diagwalks.neps import agreement_pattern


def test_kernel_refuses_a_sum_that_does_not_divide():
    # 1 * 2^1 = 2 is not a multiple of 3: no caller's sum reaches this
    with pytest.raises(ArithmeticError,
                       match="a test sum at r=1 is not divisible by 3"):
        neps._spectral_walks("a test sum", 1, 2, [(2, 1)], 1, 3)
    assert neps._spectral_walks("a test sum", 1, 2, [(2, 3)], 1, 3) == 2


def test_a_refusal_names_a_work_past_the_digit_limit():
    # 14,300 factors K_2 under one tuple: n 2^n |B| operations have 4,309
    # digits, past the 4,300 that str() converts, and the refusal says how
    # many bits they take instead
    n = 14_300
    started = time.perf_counter()
    with pytest.raises(NepsWalkTooLarge,
                       match=f"<{(n * 2**n).bit_length()}-bit integer> "
                             "operations, over the cap MAX_NEPS_OPS"):
        neps_complete_walks([2] * n, NepsBasis([(1,) * n]), 1, (True,) * n)
    assert time.perf_counter() - started < 0.5


def _log_uniform(lo, hi):
    """Integers in [lo, hi] whose bit length is uniform."""
    return st.integers(lo.bit_length(), hi.bit_length()).flatmap(
        lambda bits: st.integers(max(lo, 1 << bits >> 1),
                                 min(hi, (1 << bits) - 1)))


@st.composite
def _hamming_case(draw):
    b, q = draw(_log_uniform(1, 48)), draw(_log_uniform(2, 1 << 20))
    d, r = draw(st.integers(0, b)), draw(_log_uniform(0, 1 << 14))
    zeros = (True,) * (b - d) + (False,) * d
    return ((b, q, r, zeros), lambda: krawtchouk_double_sum(b, q, r, d))


@st.composite
def _complete_case(draw):
    # K_m is H(1, m): distinct vertices are at distance 1
    m, r = draw(_log_uniform(2, 1 << 40)), draw(_log_uniform(0, 1 << 12))
    same = draw(st.booleans())
    return ((m, r, same),
            lambda: krawtchouk_double_sum(1, m, r, int(not same)))


@st.composite
def _neps_complete_case(draw):
    # up to 8 factors of at most 36 vertices in all (K_1 adds a factor and
    # no vertex), a basis of up to 2^n - 1 tuples, and a vertex pair
    sizes = []
    for _ in range(draw(st.integers(1, 8))):
        sizes.append(draw(_log_uniform(1, 36 // math.prod(sizes))))
    n = len(sizes)
    masks = draw(st.sets(st.integers(1, 2**n - 1), min_size=1,
                         max_size=draw(_log_uniform(1, 2**n - 1))))
    basis = NepsBasis([tuple(mask >> i & 1 for i in range(n))
                       for mask in masks])
    total = math.prod(sizes)
    vi, vj = draw(st.integers(0, total - 1)), draw(st.integers(0, total - 1))
    r = draw(_log_uniform(0, 24))

    def reference():
        graph = neps_construct([complete_graph(m) for m in sizes], basis)
        return int(graph.walk_matrix(r)[vi, vj])

    return ((sizes, basis, r, agreement_pattern(sizes, vi, vj)), reference)


CASES = {
    "hamming_walks": (hamming_walks, _hamming_case()),
    "complete_walks": (complete_walks, _complete_case()),
    "neps_complete_walks": (neps_complete_walks, _neps_complete_case()),
}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_spectral_entry_points_count_or_refuse_across_the_cap(name, data):
    # MAX_NEPS_OPS lowered to a cap drawn log-uniform, and the arguments
    # drawn log-uniform on both sides of it: each call returns its
    # reference count or raises a typed error
    call, cases = CASES[name]
    cap = data.draw(_log_uniform(1, 1 << 14), label="MAX_NEPS_OPS")
    args, reference = data.draw(cases, label="args")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neps, "MAX_NEPS_OPS", cap)
        neps.cache_clear()  # a memo hit would skip the gate
        try:
            got = call(*args)
        except DiagwalksError:
            return
    assert got == reference()
