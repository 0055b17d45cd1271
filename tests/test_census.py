"""Orbit counting against necklace formulas and the exhaustive enumerator."""

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitstat import (
    build_census,
    builtin_source,
    euler_orbit_counts,
    orbit_counts,
    prime_counts,
    table_source,
    validate_dold,
)

import oracles


def test_prime_counts_match_mobius_oracle():
    for sigma in (oracles.sigma_ff(2, 30), oracles.sigma_e(3, 2, 30), oracles.sigma_ga(30)):
        expected = oracles.oracle_prime_counts(sigma)
        got = prime_counts([0] + sigma)
        assert all(got[ell] == expected[ell] for ell in range(1, 31))


def test_ff_primes_are_aperiodic_necklace_counts():
    # P_ell for sigma = q^k is the number of aperiodic necklaces of length ell.
    for q, X in ((2, 16), (3, 12)):
        cen = build_census(builtin_source("FF", q=q), X)
        neck = oracles.necklace_counts(q, X)
        assert all(cen.primes[ell] == neck[ell] for ell in range(1, X + 1))
    assert build_census(builtin_source("FF", q=2), 6).primes[1:] == [2, 1, 2, 3, 6, 9]


def test_prime_counts_reject_unrealizable_tables():
    with pytest.raises(ValueError, match="ell=3"):
        prime_counts([0, 1, 1, 2])
    with pytest.raises(ValueError, match="negative"):
        prime_counts([0, 2, 0])


@st.composite
def realizable_tables(draw):
    """Random prime counts P_ell in [0, 12) and the table sigma_k =
    sum_{ell | k} ell P_ell that realizes them (index 0 unused in both)."""
    P = [0] + draw(st.lists(st.integers(0, 11), min_size=1, max_size=40))
    sigma = [0] * len(P)
    for ell in range(1, len(P)):
        for k in range(ell, len(P), ell):
            sigma[k] += ell * P[ell]
    return P, sigma


@settings(max_examples=60, deadline=None)
@given(realizable_tables())
def test_dold_recovers_random_prime_counts(case):
    P, sigma = case
    assert list(validate_dold(sigma[1:]).primes) == P[1:]
    assert prime_counts(sigma) == P


@settings(max_examples=60, deadline=None)
@given(realizable_tables(), st.data())
def test_unrealizable_tables_fail_at_the_perturbed_length(case, data):
    P, sigma = case
    X = len(P) - 1
    ell = data.draw(st.integers(1, X))
    if ell > 1 and data.draw(st.booleans()):
        # the Mobius sum at ell moves by delta, which ell does not divide
        sigma[ell] += data.draw(st.integers(-3 * ell, 3 * ell).filter(lambda d: d % ell))
    else:
        # the Mobius sum at ell becomes -ell, so P_ell = -1
        sigma[ell] -= ell * (P[ell] + 1)
    assert validate_dold(sigma[1:]).first_failure[0] == ell
    failing = [lambda: prime_counts(sigma)]
    if min(sigma) >= 0:  # a table with a negative entry is refused before the Dold check
        failing.append(lambda: build_census(table_source(sigma[1:]), X))
    for run in failing:
        with pytest.raises(ValueError, match=rf"Dold condition at ell={ell}:"):
            run()


def test_orbit_count_routes_agree(ff2_census, e32_census):
    for cen in (ff2_census, e32_census):
        assert cen.verify_euler()
        assert cen.totals == euler_orbit_counts(cen.primes, cen.X_max)
        assert cen.totals == orbit_counts(cen.sigma)


def test_totals_match_brute_enumeration(e32_census):
    P = {ell: e32_census.primes[ell] for ell in range(1, 7)}
    results = oracles.brute_enumerate(P, 6)
    by_n = oracles.brute_counts_by_length(results)
    for n in range(7):
        assert by_n.get(n, 0) == e32_census.totals[n]
    assert oracles.brute_orbit_total(results, 6) == e32_census.count_orbits(6)


def test_cumulative_counting(ff2_census):
    assert ff2_census.count_orbits(0) == 1  # the empty orbit
    assert ff2_census.count_orbits(0, include_empty=False) == 0
    assert ff2_census.count_orbits(6) == sum(ff2_census.totals[:7])
    assert ff2_census.count_primes(6) == sum(ff2_census.primes[:7])
    n, p, m = ff2_census.cumulative(10)
    assert n == ff2_census.count_orbits(10)
    assert p == ff2_census.count_primes(10)
    assert m == ff2_census.mertens(10)
    with pytest.raises(ValueError):
        ff2_census.count_orbits(61)
    with pytest.raises(ValueError):
        ff2_census.count_primes(-1)


def test_mertens_exact_against_oracle(ff2_census, per13_census):
    import mpmath as mp

    for cen in (ff2_census, per13_census):
        lam = cen.lam.exact
        P = cen.primes
        for X in (1, 2, 5, cen.X_max):
            expected = oracles.oracle_mertens(P, lam, X)
            assert cen.mertens_exact(X) == expected
            with mp.workprec(200):
                ref = mp.mpf(expected.numerator) / expected.denominator
                assert abs(cen.mertens(X) - ref) < mp.mpf(2) ** -100
    assert ff2_census.mertens_exact(0) == Fraction(0)


def test_mertens_irrational_lambda_path():
    cen = build_census(builtin_source("GM"), 12)
    assert cen.mertens_exact(5) is None
    # direct high-precision sum as reference
    lam = cen.lam.value
    ref = sum(cen.primes[ell] * float(lam) ** (-ell) for ell in range(1, 13))
    assert abs(float(cen.mertens(12)) - ref) < 1e-12


def test_build_rejects_bad_tables():
    with pytest.raises(ValueError, match="Dold"):
        build_census(table_source((1, 1, 2)), 3)
    with pytest.raises(ValueError):
        build_census(builtin_source("FF", q=2), 0)


def test_csv_export(ff2_census):
    buf = io.StringIO()
    ff2_census.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,sigma,P,N,cumN,cumP,M"
    assert len(lines) == ff2_census.X_max + 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "" and first[3] == "1" and first[4] == "1"
    row2 = lines[3].split(",")
    assert row2[0] == "2" and row2[1] == "4" and row2[2] == "1"
    # N_2 = 4 (one prime pair-orbit plus three multisets of fixed points),
    # so cumN(2) = 1 + 2 + 4 = 7: the PMF denominator seen elsewhere.
    assert row2[3] == "4" and row2[4] == "7"

    buf2 = io.StringIO()
    ff2_census.write_csv(buf2, include_empty=False)
    lines2 = buf2.getvalue().splitlines()
    assert len(lines2) == ff2_census.X_max + 1
    assert lines2[1].split(",")[0] == "1"
    # cumN now excludes the empty orbit
    assert int(lines2[2].split(",")[4]) == 6
