"""Arithmetic helpers against brute-force oracles."""

import random
import time
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from orbitstat import numtheory as nt

import oracles


def test_is_prime_against_trial_division():
    for n in range(-3, 500):
        assert nt.is_prime(n) == (n >= 2 and all(n % d for d in range(2, n)))
    # A couple of larger Mersenne-style checks.
    assert nt.is_prime(2**31 - 1)
    assert not nt.is_prime(2**32 - 1)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def test_is_prime_is_deterministic_up_to_its_limit():
    # psi_12 is a strong pseudoprime to every base up to 37, which witness
    # 41 exposes; psi_13 fools all thirteen bases, so from there on the
    # test refuses to answer
    assert PSI_12 == 399165290221 * 798330580441
    assert not nt.is_prime(PSI_12)
    assert nt.is_prime(3317044064679887385961813)  # the largest prime below psi_13
    for n in (PSI_13, PSI_13 + 2, 2**127 - 1):
        with pytest.raises(ValueError, match="primality is decided only below 3317044064679887385961981"):
            nt.is_prime(n)


def test_divisors_against_oracle():
    for n in range(1, 200):
        assert nt.divisors(n) == oracles.trial_divisors(n)
    with pytest.raises(ValueError):
        nt.divisors(0)


def test_p_valuation():
    assert nt.p_valuation(45, 3) == 2
    assert nt.p_valuation(-8, 2) == 3
    assert nt.p_valuation(7, 5) == 0
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


def test_multiplicative_order_is_bounded():
    # at most MAX_PERIOD trial divisions, however large p is
    for p in (3000029, 1000000000039, 1000000000000000003):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^the order of n mod p exceeds the period limit 2\^17$"):
            nt.multiplicative_order(2, p)
        assert time.perf_counter() - start < 1
    assert nt.multiplicative_order(2, 100003) == 100002 <= nt.MAX_PERIOD


def test_lte_params_and_lifted_valuation():
    # For every k the closed form must equal trial valuation of n^k - 1.
    for p, n in ((3, 2), (5, 2), (7, 3), (11, 4)):
        d, e = nt.lte_params(n, p)
        for k in range(1, 40):
            lifted = e + oracles.valuation(k // d, p) if k % d == 0 else 0
            assert lifted == oracles.valuation(n**k - 1, p)
    # a huge n, or one close to 1 p-adically, never forms n^d
    assert nt.lte_params(2**4000, 100003) == (50001, 1)
    assert nt.lte_params(1 + 7**300, 7) == (1, 300)
    with pytest.raises(ValueError):
        nt.lte_params(3, 2)
    with pytest.raises(ValueError):
        nt.lte_params(6, 3)


def test_periodic_sequence_basics():
    seq = nt.PeriodicSequence((1, Fraction(1, 2), 3))
    assert seq.period == 3
    assert seq.at(1) == 1 and seq.at(2) == Fraction(1, 2) and seq.at(5) == Fraction(1, 2)
    assert not seq.is_integral()
    assert nt.PeriodicSequence.constant(4).is_integral()
    assert [nt.minimal_period(v) for v in ((5,), (1, 3, 1, 3), (1, 3, 1), (2, 2, 2, 2, 2, 2))] == [1, 2, 3, 1]
    with pytest.raises(ValueError):
        nt.PeriodicSequence(())
    with pytest.raises(ValueError):
        nt.PeriodicSequence((1, -1))
    with pytest.raises(ValueError):
        seq.at(0)


def test_is_gcd_sequence():
    # a_k = gcd(k, 12) is a gcd sequence with period 12.
    seq = nt.PeriodicSequence(tuple(gcd(k, 12) for k in range(1, 13)))
    assert nt.is_gcd_sequence(seq)
    # a_k = k mod 5 is not (and contains zeros, which is fine for the check).
    bad = nt.PeriodicSequence((1, 2, 3, 4, 5))
    assert not nt.is_gcd_sequence(bad)
    with pytest.raises(ValueError, match="non-integral value 1/2 at k=2"):
        nt.is_gcd_sequence(nt.PeriodicSequence((1, Fraction(1, 2))))


def _values(vals):
    # a stand-in for PeriodicSequence that admits negative values
    return SimpleNamespace(values=tuple(Fraction(v) for v in vals))


def test_is_gcd_sequence_matches_the_pairwise_check():
    # half the sequences are functions of gcd(n, L), which pass the first
    # check and leave the divisor pairs to decide
    rng = random.Random(26)
    verdicts = []
    for _ in range(3000):
        L = rng.randint(1, 24)
        if rng.random() < 0.5:
            vals = [rng.randint(-2, 6) for _ in range(L)]
        else:
            g = {d: rng.choice((-1, 0, 1, 2, 2, 4, 6, 12)) for d in range(1, L + 1) if L % d == 0}
            vals = [g[gcd(n, L)] for n in range(1, L + 1)]
        for meet in (gcd, min):
            verdict = nt.is_gcd_sequence(_values(vals), meet)
            assert verdict == oracles.pairwise_gcd_sequence(vals, meet), (vals, meet)
            verdicts.append(verdict)
    assert all(200 < sum(verdicts[i::2]) < 2800 for i in (0, 1))
    # a negative value fails through the pair m = n alone
    assert not nt.is_gcd_sequence(_values([-1]))
    assert not nt.is_gcd_sequence(_values([1, -2]))
    assert nt.is_gcd_sequence(_values([0]))
