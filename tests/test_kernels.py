"""The series kernels: known values, realizability errors, and the
exponential route against the Euler product on random realizable tables."""

import random

import pytest

from orbitstat import kernels

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


def test_inverse_factor_multiply_matches_euler_product():
    P = [0, 2, 1, 2, 3, 0, 1]
    X = 6
    coeffs = [1] + [0] * X
    for ell in range(1, X + 1):
        coeffs = kernels.inverse_factor_multiply(coeffs, ell, P[ell], X)
    assert coeffs == kernels.euler_product_series(P, X)
