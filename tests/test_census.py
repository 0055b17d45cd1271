"""Orbit counting against necklace formulas and the exhaustive enumerator."""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitstat import (
    build_census,
    builtin_source,
    kernels,
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


@st.composite
def sigma_tables(draw):
    """sigma_1..sigma_X: a realizable table with a few entries moved, or
    arbitrary small integers; both pass or fail at any length."""
    if draw(st.booleans()):
        _, sigma = draw(realizable_tables())
        sigma = sigma[1:]
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(0, len(sigma) - 1))
            sigma[k] += draw(st.integers(-12, 12))
        return sigma
    return draw(st.lists(st.integers(-4, 40), min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(sigma_tables())
def test_dold_sieve_matches_mobius_inversion(sigma):
    report = validate_dold(sigma)
    assert (report.ok, report.first_failure, report.primes) == oracles.oracle_dold(sigma)


def test_orbit_count_routes_agree(ff2_census, e32_census):
    for cen in (ff2_census, e32_census):
        assert cen.verify_euler()
        assert cen.totals == kernels.euler_product_series(cen.primes, cen.X_max)
        assert cen.totals == kernels.exp_logderiv_series(cen.sigma, cen.X_max)


def test_verify_euler_reports_counts_past_the_digit_limit(monkeypatch):
    # FF(2^64) at X=300 has 19201-bit totals, more digits than str() of an
    # int allows by default: a product off by one at n = X still raises the
    # AssertionError, reporting sizes instead of decimals
    cen = build_census(builtin_source("FF", q=2**64), 300, crosscheck_to=0)
    off = [*cen.totals[:-1], cen.totals[-1] + 1]
    monkeypatch.setattr(kernels, "euler_product_series", lambda P, X: off[: X + 1])
    with pytest.raises(AssertionError, match=r"at n=300: .* 19201 bits, .* 19201 bits, differing by a 1-bit"):
        cen.verify_euler()


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
    assert ff2_census.count_primes(10) == sum(ff2_census.primes[:11])
    with pytest.raises(ValueError):
        ff2_census.count_orbits(61)
    with pytest.raises(ValueError):
        ff2_census.count_primes(-1)


def test_mertens_exact_against_oracle(ff2_census, per13_census):
    import mpmath as mp

    e32 = [build_census(builtin_source("E", p=3, n=2), 64, precision=bits) for bits in (64, 128, 256)]
    for cen in (ff2_census, per13_census, *e32):
        lam = cen.lam.exact
        P = cen.primes
        for X in range(cen.X_max + 1):
            expected = oracles.oracle_mertens(P, lam, X)
            assert cen.mertens_exact(X) == expected
            assert cen.mertens(X) == oracles.oracle_mertens_mpf(P, lam, X, cen.precision)
            if cen.precision >= 128:
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
    # every prefix is bit-equal to a fresh re-sum, on a product form and on a
    # seeded raw table (whose Lambda is estimated)
    sigma, _ = oracles.random_sigma_table(random.Random(11), 64)
    for source in (builtin_source("GM"), table_source(sigma[1:])):
        for bits in (64, 128, 256):
            cen = build_census(source, 64, precision=bits)
            assert cen.mertens_exact(64) is None
            for X in range(65):
                assert cen.mertens(X) == oracles.oracle_mertens_mpf(cen.primes, cen.lam.value, X, bits)
    with pytest.raises(ValueError, match="out of census range"):
        cen.mertens(65)


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
