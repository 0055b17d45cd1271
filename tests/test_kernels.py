"""The series kernels: known values, realizability errors, both expansions
of an Euler factor against a math.comb oracle, the level-by-level Euler
product against the factors multiplied in ascending length, and the
exponential route against the Euler product on random realizable tables."""

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitstat import build_census, builtin_source, kernels

import oracles
from oracles import random_sigma_table


def test_backend_is_reported():
    assert kernels.BACKEND == "pure"


def test_two_routes_agree_with_each_other():
    rng = random.Random(5)
    sigma, P = random_sigma_table(rng, 64)
    assert kernels.exp_logderiv_series(sigma, 64) == kernels.euler_product_series(P, 64)


def test_exp_series_known_values():
    # sigma_k = 2^k: the full shift on two symbols. N_3 = 8 by hand: four
    # multisets of three length-1 primes, two {1,2} pairs, two length-3 primes.
    sigma = [0, 2, 4, 8]
    assert kernels.exp_logderiv_series(sigma, 3) == [1, 2, 4, 8]


def test_exp_series_rejects_non_integral_counts():
    # sigma_1 = 1, sigma_2 = 2 forces 2 N_2 = 1*1 + 2*1 = 3, not divisible.
    with pytest.raises(ValueError):
        kernels.exp_logderiv_series([0, 1, 2], 2)


def test_inverse_factor_multiply_is_a_geometric_factor():
    # Multiplying [1] by (1 - z^ell)^(-count) gives stars-and-bars counts.
    out = kernels.inverse_factor_multiply([1, 0, 0, 0, 0, 0, 0], 2, 3, 6)
    # coefficient of z^(2k) is C(3 + k - 1, k): 1, 3, 6, 10
    assert out == [1, 0, 3, 0, 6, 0, 10]


COEFFICIENT = st.one_of(st.just(0), st.integers(-1000, 1000), st.integers(2**200, 2**260))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), X=st.integers(0, 48))
def test_inverse_factor_multiply_matches_the_binomial_oracle(data, X):
    # both expansions against math.comb term by term; the counts either side
    # of prefix_route_max show which route ran through the running-sum calls
    ell = data.draw(st.integers(1, X + 2), label="ell")
    coeffs = data.draw(st.lists(COEFFICIENT, min_size=X + 1, max_size=X + 3), label="coeffs")
    limit = kernels.prefix_route_max(ell, X)
    count = data.draw(st.sampled_from([0, 1, 2, limit, limit + 1, 2**64]), label="count")
    sums = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "accumulate", lambda seq: sums.append(seq) or accumulate(seq))
        out = kernels.inverse_factor_multiply(coeffs, ell, count, X)
    assert out == oracles.binomial_factor_multiply(coeffs, ell, count, X)
    # one running sum per residue class and division, none on the binomial route
    assert len(sums) == (count * ell if 1 <= count <= limit else 0)
    with pytest.raises(ValueError):
        kernels.inverse_factor_multiply(coeffs, ell, -1, X)


def test_prefix_route_is_bounded():
    # a short length with a small count takes the prefix sums; the limit is
    # at most 4 X / ell, so a count of 2^64 never does
    assert kernels.prefix_route_max(1, 48) >= 2
    assert kernels.prefix_route_max(49, 48) == 0
    assert all(kernels.prefix_route_max(ell, X) <= 4 * X // ell
               for X in (0, 1, 48, 512, 10**6) for ell in (1, 2, 7, X + 1))


@pytest.mark.parametrize("X", range(81))
@settings(max_examples=2, deadline=None)
@given(counts=st.lists(st.sampled_from([0, 1, 2, 7, 2**64]), min_size=83, max_size=83))
def test_euler_product_matches_the_ascending_binomial_oracle(X, counts):
    # every X to 80, so 0, 1, 2^k - 1 and 2^k are all met; P shorter than,
    # as long as and longer than X + 1. Multiplying the factors in ascending
    # length, the product after ell is that of P[:ell + 1]
    P = [0, *counts]
    short = X // 2
    product = [1] + [0] * X
    for ell in range(X + 1):
        if ell:
            product = oracles.binomial_factor_multiply(product, ell, P[ell], X)
        if ell == max(short - 1, 0):
            assert kernels.euler_product_series(P[:short], X) == product
    assert kernels.euler_product_series(P[: X + 1], X) == product
    assert kernels.euler_product_series(P, X) == product


@pytest.mark.parametrize("X_max, crosscheck_to", [(40, 256), (40, 40), (40, 17), (40, 0)])
def test_census_build_expands_the_euler_product_once(monkeypatch, X_max, crosscheck_to):
    # one call to the full cross-check degree: no call per level or factor
    calls = []
    real = kernels.euler_product_series
    monkeypatch.setattr(kernels, "euler_product_series", lambda P, X: calls.append((len(P), X)) or real(P, X))
    build_census(builtin_source("E", p=3, n=2), X_max, crosscheck_to=crosscheck_to)
    up_to = min(X_max, crosscheck_to)
    assert calls == ([(up_to + 1, up_to)] if up_to else [])
