"""Arithmetic helpers against brute-force oracles."""

from fractions import Fraction

import pytest

from orbitstat import numtheory as nt

import oracles


def test_is_prime_against_trial_division():
    for n in range(-3, 500):
        assert nt.is_prime(n) == (n >= 2 and all(n % d for d in range(2, n)))
    # A couple of larger Mersenne-style checks.
    assert nt.is_prime(2**31 - 1)
    assert not nt.is_prime(2**32 - 1)


def test_mobius_against_oracle():
    for n in range(1, 300):
        assert nt.mobius(n) == oracles.trial_mobius(n)
    with pytest.raises(ValueError):
        nt.mobius(0)


def test_divisors_against_oracle():
    for n in range(1, 200):
        assert nt.divisors(n) == oracles.trial_divisors(n)
    with pytest.raises(ValueError):
        nt.divisors(0)


def test_p_valuation():
    assert nt.p_valuation(45, 3) == (2, Fraction(1, 9))
    assert nt.p_valuation(-8, 2) == (3, Fraction(1, 8))
    assert nt.p_valuation(7, 5) == (0, Fraction(1))
    with pytest.raises(ValueError):
        nt.p_valuation(0, 3)
    with pytest.raises(ValueError):
        nt.p_valuation(10, 4)


def test_multiplicative_order():
    for p in (3, 5, 7, 11, 13):
        for n in range(2, 40):
            if n % p == 0:
                continue
            d = nt.multiplicative_order(n, p)
            assert pow(n, d, p) == 1
            assert all(pow(n, k, p) != 1 for k in range(1, d))


def test_lte_params_and_lifted_valuation():
    # For every k the closed form must equal trial valuation of n^k - 1.
    for p, n in ((3, 2), (5, 2), (7, 3), (11, 4)):
        d, e = nt.lte_params(n, p)
        for k in range(1, 40):
            lifted = e + oracles.valuation(k // d, p) if k % d == 0 else 0
            assert lifted == oracles.valuation(n**k - 1, p)
    with pytest.raises(ValueError):
        nt.lte_params(3, 2)
    with pytest.raises(ValueError):
        nt.lte_params(6, 3)


def test_periodic_sequence_basics():
    seq = nt.PeriodicSequence((1, Fraction(1, 2), 3))
    assert seq.period == 3
    assert seq.at(1) == 1 and seq.at(2) == Fraction(1, 2) and seq.at(5) == Fraction(1, 2)
    assert not seq.is_integral()
    assert nt.PeriodicSequence.constant(4).is_integral(window=10)
    with pytest.raises(ValueError):
        nt.PeriodicSequence(())
    with pytest.raises(ValueError):
        nt.PeriodicSequence((1, -1))
    with pytest.raises(ValueError):
        seq.at(0)


def test_is_gcd_sequence():
    # a_k = gcd(k, 12) is a gcd sequence with period 12.
    from math import gcd

    seq = nt.PeriodicSequence(tuple(gcd(k, 12) for k in range(1, 13)))
    assert nt.is_gcd_sequence(seq, 36)
    # a_k = k mod 5 is not (and contains zeros, which is fine for the check).
    bad = nt.PeriodicSequence((1, 2, 3, 4, 5))
    assert not nt.is_gcd_sequence(bad, 10)
    with pytest.raises(ValueError):
        nt.is_gcd_sequence(nt.PeriodicSequence((Fraction(1, 2),)), 2)
